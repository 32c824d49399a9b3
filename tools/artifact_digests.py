"""SHA-256 of every artifact that the CLI chain and ``run_pipeline`` write.

    python3 tools/artifact_digests.py --config CFG --out DIR [--pipeline-seeds 7 11]

The ``cli`` run takes every subcommand, ``ablate`` included, through one run
directory on the config ``CFG``. Each ``pipeline-<seed>`` run is
``run_pipeline`` on perfbench's pipeline-2k config at that seed;
``--pipeline-seeds`` with no value skips them. Each run writes into its own,
emptied, directory under ``DIR``.

The last line of standard output is one JSON object, ``{run: {file:
sha256}}``; the subcommands' own output goes to standard error. Run it in two
checkouts and compare the lines to check that a change leaves every artifact
byte-identical. The BLAS library runs one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, since a threaded BLAS may round
differently from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each subcommand in the order that its inputs exist
CLI_CHAIN = ("gen-data", "quantize", "analyze", "build-seqs", "train", "align", "decode",
             "eval", "ablate")


def digests(run_dir) -> dict:
    """file name -> sha256 of its bytes, for each file of ``run_dir``."""
    return {name: hashlib.sha256((Path(run_dir) / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(run_dir))}


def fresh(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return str(path)


def cli_run(config, run_dir) -> dict:
    """Digests of the run directory after each CLI subcommand ran on ``config``."""
    from sidforge import cli

    for command in CLI_CHAIN:
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main([command, "--config", str(config), "--out", run_dir])
        if status != 0:
            raise SystemExit(f"artifact_digests: {command} exited {status}")
    return digests(run_dir)


def pipeline_run(seed: int, run_dir) -> dict:
    from sidforge import pipeline
    from workloads import PIPELINE_2K

    pipeline.run_pipeline(pipeline.load_config({**PIPELINE_2K, "seed": seed}), run_dir)
    return digests(run_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", required=True, help="JSON run config of the cli run")
    ap.add_argument("--out", required=True, help="directory to hold one directory per run")
    ap.add_argument("--pipeline-seeds", type=int, nargs="*", default=[7, 11])
    args = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    runs = {"cli": cli_run(args.config, fresh(Path(args.out) / "cli"))}
    for seed in args.pipeline_seeds:
        runs[f"pipeline-{seed}"] = pipeline_run(seed, fresh(Path(args.out) / f"pipeline-{seed}"))
    print(json.dumps(runs, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
