"""Tiny-size self-check of the benchmark harness; finishes in seconds.

    python -m pytest perfbench -q

It runs every workload path at toy sizes, the traced run, and each output
check against an input made to fail it. The repository's own test suite
does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sidforge import decoder  # noqa: E402

def tiny(name, out_dir):
    if name == "pipeline-2k":
        return workloads.PipelineWorkload(3, out_dir, config=workloads.PIPELINE_TINY, n_inputs=2)
    if name == "quantize-10k-skewed":
        return workloads.QuantizeWorkload(3, out_dir, n_items=400, k=8, n_inputs=2)
    return workloads.DecodeWorkload(3, out_dir, n_items=300, n_requests=120, unit_requests=10,
                                    n_inputs=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    metrics, attempted, failed, problems, detail = run.timed_run(tiny(name, tmp_path), 0.2)
    assert problems == [] and failed == 0 and attempted >= 1
    assert sorted(metrics) == sorted(n for n, _, _ in run.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    assert detail["named"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    metrics, _, failed, problems, detail = run.traced_run(tiny(name, tmp_path), tmp_path)
    assert problems == [] and failed == 0
    assert sorted(metrics) == sorted(n for n, _, _ in layers.PER_LAYER)
    assert Path(detail["spans_file"]).stat().st_size > 0
    exercised = {"pipeline-2k": "evaluation.beam_searches",
                 "quantize-10k-skewed": "quantizer.baseline.layer0.n_iter",
                 "decode-10k": "decoder.step_logprobs_calls_per_search"}[name]
    assert metrics[exercised] > 0


def test_candidate_check_catches_bad_lists():
    trie = decoder.build_trie({1: (0, 1), 2: (0, 2), 3: (1, 0)})
    good = [decoder.Candidate((0, 1), -0.5, (1,)), decoder.Candidate((1, 0), -0.9, (3,))]
    assert workloads.candidate_problems(good, trie, 2) == []
    unsorted = good[::-1]
    not_in_trie = [good[0], decoder.Candidate((2, 2), -1.0, (9,))]
    wrong_items = [good[0], decoder.Candidate((1, 0), -0.9, (2,))]
    for bad in (unsorted, not_in_trie, wrong_items, good[:1]):
        assert workloads.candidate_problems(bad, trie, 2)


def test_capacity_check_catches_an_overloaded_arm(tmp_path):
    wl = tiny("quantize-10k-skewed", tmp_path)
    wl.setup(0)
    cap, _ = wl._arm("capacity")
    base, _ = wl._arm("baseline")
    assert wl.capacity_problems(cap) == []
    assert wl.capacity_problems(base)  # the baseline ignores the cap


def test_failed_checks_and_errors_count_as_failures():
    def op(i):
        if i == 2:
            raise RuntimeError("boom")
        return 0.001, ["digest differs"] if i == 1 else []

    m = workloads.closed_loop(op, 0.0, 5)
    assert (m.attempted, m.failed, len(m.latencies)) == (3, 2, 2)


class _Drifting:
    """A workload whose output changes on every unit."""

    name, tau = "drifting", 1.0

    def __init__(self):
        self.calls = 0

    def setup(self, j):
        pass

    def unit(self, tracer=None):
        self.calls += 1
        return self.calls, 1.0

    def check_trace(self, tr, out):
        return []


def test_traced_run_catches_outputs_that_differ(tmp_path):
    _, _, failed, problems, _ = run.traced_run(_Drifting(), tmp_path)
    assert failed and any("differ" in p for p in problems)


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        [n for n in workloads.WORKLOADS if n not in workloads.BY_HAND]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    env = run.environment()
    assert env["nproc"] >= 1 and env["blas"]["name"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-2k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout
