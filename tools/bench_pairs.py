"""Paired benchmark runs of a parent checkout and a changed one.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload decode-10k --seed 7 --pairs 10 --out BENCH_prN.json --what "..."

Each run is ``python3 perfbench/run.py --workload W --seed S --trace 0``
inside its own checkout, one run at a time, at perfbench's own run length,
which the set records as perfbench reports it. Pairs alternate which side
runs first: odd pairs run the parent first. The runs of one call form a set:
both sides' results in pair order and, per end-to-end metric of
``BENCHMARK.json``, each side's values, the medians, the change/parent ratio
of the medians, the parent's interquartile range, the number of pairs where
the change reads better, each side's failed operations, and whether the
metric regressed or is unresolved against its bound. A run whose checks
do not pass counts as at least one failed operation, and no gain is shown
when the change's runs fail more operations than the parent's. The set is
appended to the ``sets`` of ``--out``; a new file also records the
environment that the first run reported, and whether the runs write bytecode
caches (see :func:`bytecode_setting`).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0"


def stats(parent, change, better: str = "lower", parent_failed=(), change_failed=(), *,
          bound: float) -> dict:
    """Summary of one metric's paired values, in pair order.

    ``change_better`` counts the pairs where the change reads better; a tie
    counts for neither side. ``parent_failed`` and ``change_failed`` hold each
    run's failed operations, in pair order. ``gain_shown`` holds when the
    change is better in at least nine tenths of the pairs, its median is
    better than the parent's by more than the parent's interquartile range,
    and its runs fail no more operations in total than the parent's.

    ``bound`` is the metric's ``BENCHMARK.json`` bound, a share of the
    parent's median. ``regressed`` holds when the change's median is worse
    than the parent's by more than that share. ``unresolved`` holds when the
    parent's interquartile range is wider than that share and not every run
    of the change reads better than every run of the parent.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if p.shape != c.shape or p.ndim != 1 or not p.size:
        raise ValueError("need one parent and one change value per pair")
    fails = {"parent": int(sum(parent_failed)), "change": int(sum(change_failed))}
    sign = 1.0 if better == "lower" else -1.0
    wins = int(np.sum(sign * c < sign * p))
    q1, q3 = np.percentile(p, [25, 75])
    p_med, c_med = float(np.median(p)), float(np.median(c))
    allowed = bound * abs(p_med)
    return {
        "parent": [round(float(v), 4) for v in p],
        "change": [round(float(v), 4) for v in c],
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "ratio": round(c_med / p_med, 4) if p_med else None,
        "parent_iqr": round(float(q3 - q1), 4),
        "change_better": wins,
        "ties": int(np.sum(c == p)),
        "pairs": len(p),
        "parent_failed": fails["parent"],
        "change_failed": fails["change"],
        "gain_shown": bool(wins >= 0.9 * len(p) and sign * (p_med - c_med) > q3 - q1
                           and fails["change"] <= fails["parent"]),
        "bound": bound,
        "regressed": bool(sign * (c_med - p_med) > allowed),
        "unresolved": bool(q3 - q1 > allowed and not np.max(sign * c) < np.min(sign * p)),
    }


def bytecode_setting() -> dict:
    """This process's ``sys.flags.dont_write_bytecode`` and ``PYTHONDONTWRITEBYTECODE``.

    The runs inherit the variable, not a ``-B`` flag. Without a bytecode cache
    each cold import of sidforge compiles it again, which moves pipeline-2k's
    ``setup_s`` by about a quarter.
    """
    return {"sys.flags.dont_write_bytecode": sys.flags.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_once(checkout: Path, workload: str, seed: int) -> tuple:
    """One ``--trace 0`` run in ``checkout``: its result line, environment and length in s."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output (exit {done.returncode}): {done.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{checkout}: last line {lines[-1]!r:.200} is not a result "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}") from None
    record = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    with open(record, encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record["environment"], record["seconds"]


def failed_ops(result: dict) -> int:
    """A run's failed operations; a run whose checks do not pass counts at least one."""
    return result["failed"] if result["correct"] else max(1, result["failed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default="", help="what the change is, for a new --out file")
    args = ap.parse_args(argv)

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, environment, seconds = [], None, None
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side], env, run_s = run_once(sides[side], args.workload, args.seed)
            environment, seconds = environment or env, seconds or run_s
            if run_s != seconds:
                raise RuntimeError(f"{sides[side]}: a {run_s:g} s run in a set of "
                                   f"{seconds:g} s runs")
            print(f"pair {i} {side}: " + json.dumps(pair[side]["metrics"]), flush=True)
        pairs.append(pair)

    def values(side, name):
        return [p[side]["metrics"][name]["value"] if name in p[side]["metrics"] else np.nan
                for p in pairs]

    def failures(side):
        return [failed_ops(p[side]) for p in pairs]

    entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "n_pairs": args.pairs, "pairs": pairs,
             "stats": {name: stats(values("parent", name), values("change", name), better,
                                   failures("parent"), failures("change"), bound=bound)
                       for name, better, bound in metrics}}
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"what": args.what,
               "command": COMMAND,
               "pairing": "pairs alternate which side runs first (odd pairs: parent first); "
                          "one run at a time; each side from its own checkout of the same "
                          "perfbench/",
               "stats_fields": "per end-to-end metric: each side's values in pair order, "
                               "medians, the change/parent ratio of medians, the parent's "
                               "interquartile range, the number of pairs where the change "
                               "reads better, ties, each side's failed operations (a run whose "
                               "checks do not pass counts at least one), and whether that shows "
                               "a gain (better in 9/10 of the pairs, medians apart by more than "
                               "the parent's interquartile range, no more failed operations "
                               "than the parent), the metric's bound as a share of the parent's "
                               "median, whether the change's median is worse than the parent's "
                               "by more than the bound (regressed), and whether the parent's "
                               "interquartile range is wider than the bound while some change "
                               "run does not read better than every parent run (unresolved)",
               "environment": {**environment, **bytecode_setting()}, "sets": []}
    doc["sets"].append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, s in entry["stats"].items():
        print(f"{args.workload} seed {args.seed} {name}: parent {s['parent_median']} "
              f"change {s['change_median']} ratio {s['ratio']} parent IQR {s['parent_iqr']} "
              f"better {s['change_better']}/{s['pairs']} gain shown {s['gain_shown']} "
              f"regressed {s['regressed']} unresolved {s['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
