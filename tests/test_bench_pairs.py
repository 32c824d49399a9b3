"""The statistics that tools/bench_pairs.py records for paired benchmark runs."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import failed_ops, stats  # noqa: E402


def test_lower_is_better_counts_wins_ties_and_the_parent_spread():
    parent = [1.50, 1.60, 1.55, 1.70, 1.52]
    change = [1.40, 1.60, 1.45, 1.30, 1.41]
    s = stats(parent, change, "lower", bound=0.1)
    assert (s["parent"], s["change"]) == (parent, change)  # pair order kept
    assert (s["parent_median"], s["change_median"]) == (1.55, 1.41)
    assert s["ratio"] == round(1.41 / 1.55, 4)
    assert s["parent_iqr"] == 0.08  # quartiles 1.52 and 1.60
    assert (s["change_better"], s["ties"], s["pairs"]) == (4, 1, 5)
    assert not s["gain_shown"]  # 4 of 5 is below nine tenths


def test_gain_needs_nine_tenths_and_a_gap_wider_than_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    assert stats(parent, [p - 1.0 for p in parent], bound=0.1)["gain_shown"]
    # better in every pair, but by less than the parent's IQR of 0.45
    close = stats(parent, [p - 0.1 for p in parent], bound=0.1)
    assert close["change_better"] == 10 and not close["gain_shown"]
    one_loss = [p - 1.0 for p in parent[:8]] + [parent[8] + 1.0, parent[9] - 1.0]
    assert stats(parent, one_loss, bound=0.1)["gain_shown"]  # 9 of 10
    two_losses = [p - 1.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert not stats(parent, two_losses, bound=0.1)["gain_shown"]


def test_no_gain_when_the_change_fails_more_operations():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    change = [p - 1.0 for p in parent]
    s = stats(parent, change, "lower", [0] * 10, [0] * 9 + [1], bound=0.1)
    assert (s["parent_failed"], s["change_failed"]) == (0, 1)
    assert s["change_better"] == 10 and not s["gain_shown"]
    assert stats(parent, change, "lower", [1] + [0] * 9, [0] * 9 + [1], bound=0.1)["gain_shown"]


def test_regressed_when_the_median_is_worse_by_more_than_the_bound():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4]  # median 10.2, so a bound of 0.1 allows 1.02
    assert not stats(parent, [p + 1.0 for p in parent], "lower", bound=0.1)["regressed"]
    worse = stats(parent, [p + 1.1 for p in parent], "lower", bound=0.1)
    assert worse["regressed"] and worse["bound"] == 0.1
    assert not stats(parent, [p - 5.0 for p in parent], "lower", bound=0.1)["regressed"]
    assert stats(parent, [p - 1.1 for p in parent], "higher", bound=0.1)["regressed"]


def test_unresolved_when_the_parent_spread_is_wider_than_the_bound():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # IQR 2.0, wider than 0.1 * 12
    assert not stats(parent, parent, "lower", bound=0.2)["unresolved"]  # IQR within 2.4
    same = stats(parent, parent, "lower", bound=0.1)
    assert same["unresolved"] and not same["regressed"]
    # every change run below every parent run resolves it
    assert not stats(parent, [9.9, 9.0, 8.0, 9.5, 9.8], "lower", bound=0.1)["unresolved"]
    assert stats(parent, [9.9, 9.0, 8.0, 9.5, 10.0], "lower", bound=0.1)["unresolved"]
    assert not stats(parent, [14.1, 15.0, 16.0, 14.5, 20.0], "higher", bound=0.1)["unresolved"]


def test_a_run_whose_checks_fail_counts_as_a_failed_operation():
    assert failed_ops({"correct": True, "failed": 0}) == 0
    assert failed_ops({"correct": False, "failed": 0}) == 1
    assert failed_ops({"correct": False, "failed": 3}) == 3


def test_higher_is_better_flips_the_direction():
    s = stats([10.0, 11.0, 12.0], [13.0, 14.0, 15.0], "higher", bound=0.1)
    assert s["change_better"] == 3 and s["gain_shown"]
    assert stats([10.0, 11.0, 12.0], [13.0, 14.0, 15.0], "lower", bound=0.1)["change_better"] == 0


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "lower"),
    ([], [], "lower"),
    ([1.0], [1.0], "faster"),
])
def test_bad_input_raises(parent, change, better):
    with pytest.raises(ValueError):
        stats(parent, change, better, bound=0.1)


@pytest.mark.parametrize("value", [None, "1"])
def test_a_new_file_records_whether_the_runs_write_bytecode(tmp_path, monkeypatch, value):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    result = {"metrics": {"setup_s": {"value": 1.0}}, "correct": True, "failed": 0}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: (result, {"cpus": 2}, 45))
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    out = tmp_path / "bench.json"
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
            "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert json.loads(out.read_text())["environment"] == {
        "cpus": 2, "PYTHONDONTWRITEBYTECODE": value,
        "sys.flags.dont_write_bytecode": sys.flags.dont_write_bytecode}
    assert bench_pairs.main(args) == 0  # a second set leaves the environment as it was
    doc = json.loads(out.read_text())
    assert len(doc["sets"]) == 2 and doc["environment"]["PYTHONDONTWRITEBYTECODE"] == value


def test_a_run_whose_last_line_is_not_a_result_names_the_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('warming up')\nprint('cache miss', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run_once(tmp_path, "w", 7)
    message = str(exc.value)
    assert str(tmp_path) in message and "'warming up'" in message
    assert "exit 3" in message and "cache miss" in message
