"""tools/artifact_digests.py hashes the same artifacts on two runs of one config."""

import json
import pathlib
import subprocess
import sys

from test_cli import MINI_CONFIG

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"

# what gen-data, quantize, analyze, build-seqs, train, align, decode, eval and ablate write
CLI_FILES = [
    "ablation.json", "aligned_checkpoint.json", "analysis.json", "candidates.jsonl",
    "candidates.jsonl.meta.json", "checkpoint.json", "codebook.json", "interactions.jsonl",
    "interactions.jsonl.meta.json", "items.jsonl", "items.jsonl.meta.json", "report.json",
    "sequences.jsonl", "sequences.jsonl.meta.json", "sids.jsonl", "sids.jsonl.meta.json",
    "space.json",
]


def digest_run(config, out) -> dict:
    done = subprocess.run([sys.executable, str(TOOL), "--config", str(config), "--out", str(out),
                           "--pipeline-seeds"], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_the_cli_chain_digests_every_artifact_and_repeat(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MINI_CONFIG))
    first = digest_run(config, tmp_path / "a")
    assert list(first) == ["cli"]
    assert sorted(first["cli"]) == CLI_FILES
    assert all(len(h) == 64 for h in first["cli"].values())
    assert digest_run(config, tmp_path / "b") == first
