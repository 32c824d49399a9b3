"""sidforge benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pipeline-2k --seed 7 --seconds 45 --trace 0

With ``--trace 0`` it times the workload with nothing hooked and reports
the end-to-end metrics. With ``--trace 1`` it runs a fixed unit of the
workload untraced, then traced twice (the first traced pass also traces
set-up), checks that all three give the same outputs and counts, and
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Everything above it is
for people. Full results and the spans go to ``.bench_out/`` in the
checkout. The exit code is 0 only when every output check passed; it is
2 when there is no sidforge source tree to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name, unit, better; each workload reports each one
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("max_load_over_cap", "ratio", "lower"),
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def blas_threads():
    """Threads the loaded BLAS library will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return {"library": os.path.basename(lib), "threads": getter()}
    return {"library": libs[0] if libs else None, "threads": None}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **blas_threads(),
                 "env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}},
        "machine": platform.machine(),
    }


def timed_run(wl, seconds):
    setup_s = []
    for j in range(wl.setup_reps):
        t0 = perf_counter()
        wl.setup(j)
        setup_s.append(perf_counter() - t0)
    m = wl.measure(seconds)
    named = {
        "setup_s": (statistics.median(setup_s), "s"),
        **m.named,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (m.failed / max(1, m.attempted), "ratio"),
    }
    metrics = {}
    if m.latencies and "max_load_over_cap" in named:
        lat = np.array(m.latencies)
        metrics = {
            "setup_s": named["setup_s"][0],
            "latency_ms": float(np.percentile(lat, wl.latency_percentile)) * 1e3,
            "peak_rss_mb": named["peak_rss_mb"][0],
            "max_load_over_cap": named["max_load_over_cap"][0],
        }
    detail = {"setup_runs_s": setup_s, "latencies_s": m.latencies, "inputs": wl.n_inputs,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    return metrics, m.attempted, m.failed, m.problems, detail


def traced_run(wl, out_dir):
    """Unit untraced, traced (with set-up), untraced, traced.

    The overhead compares the faster of the two untraced units with the
    faster of the two traced ones, so a cold first unit does not count.
    """
    import layers
    from spans import Tracer

    def traced_unit(tr, with_setup):
        tr.install(layers.hooks())
        try:
            if with_setup:
                tr.request = "setup"
                wl.setup(0)
            tr.request = "unit"
            return wl.unit(tr)
        finally:
            tr.uninstall()

    tracers = [Tracer(), Tracer()]
    wl.setup(0)
    outs, times = zip(wl.unit(), traced_unit(tracers[0], True),
                      wl.unit(), traced_unit(tracers[1], False))

    problems = [f"unit {i} outputs differ from unit 0" for i in (1, 2, 3) if outs[i] != outs[0]]
    counts = [layers.exact_counts(tr) for tr in tracers]
    problems += [f"count {k} differs between traced units: {counts[0].get(k)} vs {v}"
                 for k, v in counts[1].items() if counts[0].get(k) != v]
    problems += wl.check_trace(tracers[0], outs[1])
    untraced, traced = min(times[0::2]), min(times[1::2])
    metrics = layers.per_layer_metrics(tracers[0], wl.tau, (traced - untraced) / untraced * 100)
    spans_path = out_dir / f"spans-{wl.name}.jsonl"
    tracers[0].write(spans_path)
    detail = {"unit_s": times, "spans_file": str(spans_path), "exact_counts": counts[0]}
    return metrics, 4, min(4, len(problems)), problems, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline-2k", "quantize-10k-skewed", "decode-10k"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sidforge" / "__init__.py").is_file():
        print(f"perfbench: no sidforge sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sidforge

    if Path(sidforge.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported sidforge from {sidforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    env = environment()
    if args.trace:
        metrics, attempted, failed, problems, detail = traced_run(wl, OUT)
        catalog = layers.PER_LAYER
    else:
        metrics, attempted, failed, problems, detail = timed_run(wl, args.seconds)
        catalog = END_TO_END
    correct = not problems and set(metrics) == {name for name, _, _ in catalog}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in catalog if name in metrics}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": problems,
              "detail": detail, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, m in detail.get("named", {}).items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, unit, better in catalog:
        if name in metrics:
            print(f"  {name:<48} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {failed} failed of {attempted} attempted")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
