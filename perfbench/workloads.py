"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed alone and exposes:

* ``setup()`` - everything before the first measured operation: a cold
  interpreter importing sidforge, then the workload's own state;
* ``measure(seconds)`` - a closed loop of operations, one client, until
  ``seconds`` have passed; returns a :class:`Measurement`;
* ``unit(tracer)`` - a fixed piece of work whose output the traced run
  compares with an untraced run of the same unit.

Why each workload exists, and which layers it loads or bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import sidforge
from sidforge import corpus, decoder, pipeline, quantizer, scorer

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(sidforge.__file__)))


@dataclass
class Measurement:
    latencies: list  # seconds per operation; operation i ran on input i % n_inputs
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    named: dict = field(default_factory=dict)  # name -> (value, unit)


def input_seed(seed: int, j: int) -> int:
    """Seed of a run's j-th input; input 0 uses the run's own seed."""
    return seed if j == 0 else int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def cold_import():
    """A fresh interpreter imports sidforge, as every user's process does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    # no timeout: with one, Python polls for the child's exit in steps of up
    # to 50 ms, and the set-up time reads in multiples of them
    subprocess.run([sys.executable, "-c", "import sidforge.pipeline"], env=env, check=True)


def digest_dir(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_rq(rq) -> str:
    h = hashlib.sha256(np.ascontiguousarray(rq.codes_matrix()).tobytes())
    for layer in rq.codebook.layers:
        h.update(np.ascontiguousarray(layer).tobytes())
    return h.hexdigest()


def load_over_cap(codes, weights, k: int, tau: float) -> np.ndarray:
    """Per layer: heaviest cluster load over tau * mean load, recounted."""
    cap = tau * weights.sum() / k
    return np.array([np.bincount(codes[:, l], weights=weights, minlength=k).max() / cap
                     for l in range(codes.shape[1])])


def candidate_problems(cands, trie, top_k: int) -> list:
    """Each candidate resolves to a trie path; the list is ranked."""
    out = []
    if len(cands) != min(top_k, trie.n_paths):
        out.append(f"{len(cands)} candidates, expected {min(top_k, trie.n_paths)}")
    for c in cands:
        try:
            items = trie.items_at(c.path)
        except decoder.DecoderError:
            out.append(f"candidate path {tuple(c.path)} is not a trie path")
            continue
        if tuple(sorted(items)) != tuple(c.item_ids):
            out.append(f"candidate {tuple(c.path)} lists items {c.item_ids}, trie has {items}")
        if not (math.isfinite(c.logprob) and c.logprob <= 0.0):
            out.append(f"candidate {tuple(c.path)} has log-prob {c.logprob}")
    keys = [(-c.logprob, tuple(c.path)) for c in cands]
    if keys != sorted(keys):
        out.append("candidates are not sorted by log-prob")
    return out


def closed_loop(op, seconds: float, min_ops: int):
    """Run ``op(i)`` until ``seconds`` have passed and ``min_ops`` have run.

    ``op`` returns (seconds taken, problems). An exception ends the loop
    and counts as a failed operation.
    """
    m = Measurement(latencies=[], attempted=0)
    start = perf_counter()
    while m.attempted < min_ops or perf_counter() - start < seconds:
        m.attempted += 1
        try:
            took, problems = op(m.attempted - 1)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            m.failed += 1
            m.problems.append(f"operation {m.attempted - 1} raised {exc!r}")
            break
        m.latencies.append(took)
        if problems:
            m.failed += 1
            m.problems += problems
    return m


# A pipeline small enough to run in a fraction of a second: it warms every
# code path up before the timed runs, and it sizes the self-check.
PIPELINE_TINY = {
    "corpus": {"n_items": 120, "d_emb": 6, "n_clusters_true": 4, "n_requests": 150,
               "events_per_request": 3},
    "quantizer": {"n_layers": 3, "k": 4, "tau": 1.2},
    "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 4},
    "scorer": {"d_model": 8, "max_behavior_len": 8},
    "train": {"epochs": 1, "batch_size": 16},
    "align": {"batch_size": 16, "pairs_per_request": 2},
}

PIPELINE_2K = {
    "corpus": {"n_items": 2000, "n_requests": 2000},
    "quantizer": {"k": 32, "n_layers": 3},
    "tokenizer": {"attr_chain": ["l2", "l3"]},
    "train": {"epochs": 1},
}


class PipelineWorkload:
    """``run_pipeline`` on the ROADMAP baseline config, one run per input."""

    name = "pipeline-2k"
    setup_reps = 9
    latency_percentile = 50

    def __init__(self, seed: int, out_dir, config=None, n_inputs: int = 2):
        self.out_dir = str(out_dir)
        self.n_inputs = n_inputs
        self.cfgs = [pipeline.load_config({**(config or PIPELINE_2K), "seed": input_seed(seed, j)})
                     for j in range(n_inputs)]
        self.tau = self.cfgs[0].quantizer.tau

    def setup(self, j):
        cold_import()  # run_pipeline builds everything else from the config

    def _run(self, j, tag):
        run_dir = os.path.join(self.out_dir, tag)
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = perf_counter()
        pipeline.run_pipeline(self.cfgs[j], run_dir)
        return run_dir, perf_counter() - t0

    def measure(self, seconds: float) -> Measurement:
        n, first, fields = self.n_inputs, {}, {}

        def op(i):
            j = i % n
            run_dir, took = self._run(j, f"pipeline-{i}")
            digest = digest_dir(run_dir)
            if j not in first:
                first[j] = digest
                problems, fields[j] = self.inspect(self.cfgs[j], run_dir)
            elif digest != first[j]:
                problems = [f"run {i} artifacts differ from an earlier run of input {j}"]
            else:
                problems = []
            shutil.rmtree(run_dir)
            return took, problems

        warm_up = pipeline.load_config({**PIPELINE_TINY, "seed": self.cfgs[0].seed})
        pipeline.run_pipeline(warm_up, os.path.join(self.out_dir, "pipeline-warm-up"))
        shutil.rmtree(os.path.join(self.out_dir, "pipeline-warm-up"))
        # one input runs twice, so every measurement checks bit-identity
        m = closed_loop(op, seconds, n + 1)
        if m.latencies:
            m.named["pipeline_s"] = (float(np.median(m.latencies)), "s")
        if 0 in fields:
            m.named.update(fields[0])
            m.named["max_load_over_cap"] = (max(f["max_load_over_cap"][0]
                                                for f in fields.values()), "ratio")
        return m

    def inspect(self, cfg, run_dir):
        """Check one run's artifacts; return problems and quality fields."""
        problems = []

        def path(name):
            return os.path.join(run_dir, name)

        with open(path("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        ratios = ([report["token_hr3_mean"]] + list(report["token_hr3"].values())
                  + list(report["hr_at"].values()) + list(report["hr_at_orders"].values()))
        if not all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in ratios):
            problems.append(f"report ratios outside [0, 1]: {ratios}")
        hr = [report["hr_at"][str(k)] for k in sorted(cfg.eval.ks)]
        if hr != sorted(hr):
            problems.append(f"HR@K falls as K grows: {hr}")
        if not 0 <= report["n_order_samples"] <= report["n_samples"] or not report["n_samples"]:
            problems.append(f"sample counts {report['n_samples']}, {report['n_order_samples']}")

        paths = pipeline.load_sequences(path("sequences.jsonl"))
        trie = decoder.build_trie(paths)
        with open(path("candidates.jsonl"), encoding="utf-8") as fh:
            cands = [decoder.Candidate(tuple(o["path"]), o["logprob"], tuple(o["item_ids"]))
                     for o in map(json.loads, fh)]
        problems += candidate_problems(cands, trie, cfg.decode.top_k)

        corp = corpus.load_items(path("items.jsonl"))
        codes = np.array([s.codes for s in sorted(quantizer.load_sids(path("sids.jsonl")),
                                                   key=lambda s: s.item_id)])
        ratio = load_over_cap(codes, corp.weights(), cfg.quantizer.k, self.tau)
        if not ratio.max() <= 1.0:
            problems.append(f"max load over cap {ratio.tolist()} exceeds 1")

        params = scorer.load_checkpoint(path("checkpoint.json"))
        log = corpus.load_interactions(path("interactions.jsonl"))
        space = pipeline.build_space(cfg, corp)
        _, eval_set = pipeline.assemble_samples(cfg, corp, log, space, paths)
        if len(eval_set) != report["n_samples"]:
            problems.append(f"eval split has {len(eval_set)} samples, report "
                            f"{report['n_samples']}")
        nll = -float(np.mean([scorer.sequence_logprob(params, s) for s in eval_set]))
        if not (math.isfinite(nll) and nll > 0.0):
            problems.append(f"eval NLL {nll}")

        return problems, {
            "hr_at_10": (report["hr_at"]["10"], "ratio"),
            "token_hr3_mean": (report["token_hr3_mean"], "ratio"),
            "eval_nll": (nll, "nats"),
            "max_load_over_cap": (float(ratio.max()), "ratio"),
        }

    def unit(self, tracer=None):
        run_dir, took = self._run(0, "pipeline-unit")
        t0 = perf_counter()
        scorer.load_checkpoint(os.path.join(run_dir, "checkpoint.json"))
        took += perf_counter() - t0
        with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        out = {"digest": digest_dir(run_dir), "report": report}
        shutil.rmtree(run_dir)
        return out, took

    def check_trace(self, tr, out) -> list:
        """Eval runs one beam search per K and subset for each sample."""
        report = out["report"]
        want = len(self.cfgs[0].eval.ks) * (report["n_samples"] + report["n_order_samples"])
        got = tr.count_under("decoder.beam_search", "evaluation.bs_hit_ratio")
        return [] if got == want else [f"{got} eval beam searches, the code reads {want}"]


class QuantizeWorkload:
    """Capacity-repaired and baseline quantization of skewed corpora."""

    name = "quantize-10k-skewed"
    latency_percentile = 50

    def __init__(self, seed: int, out_dir, n_items: int = 10_000, k: int = 32,
                 n_inputs: int = 5):
        self.n_inputs = self.setup_reps = n_inputs
        self.synths = [corpus.SynthConfig(
            n_items=n_items, d_emb=16, n_clusters_true=8, zipf_exponent=1.1,
            attr_correlation=0.9, seed=input_seed(seed, j), n_requests=10,
            popularity_concentration=0.9, popular_blobs=1, popular_blob_scale=0.08,
        ) for j in range(n_inputs)]
        self.corpora = [None] * n_inputs
        base = pipeline.load_config({"seed": seed, "quantizer": {"k": k, "n_layers": 3,
                                                                 "tau": 1.05}})
        self.tau, self.k = base.quantizer.tau, k
        self.arms = {m: dataclasses.replace(base, quantizer=dataclasses.replace(
            base.quantizer, method=m)) for m in ("capacity", "baseline")}

    def setup(self, j):
        cold_import()
        self.corpora[j % self.n_inputs] = corpus.generate_corpus(self.synths[j % self.n_inputs])

    def _arm(self, arm, j=0):
        t0 = perf_counter()
        rq = pipeline.run_quantizer(self.arms[arm], self.corpora[j])
        return rq, perf_counter() - t0

    def ratio(self, rq, j=0):
        return load_over_cap(rq.codes_matrix(), self.corpora[j].weights(), self.k, self.tau)

    def capacity_problems(self, rq, j=0) -> list:
        ratio = self.ratio(rq, j)
        out = [] if ratio.max() <= 1.0 else [f"capacity arm load over cap {ratio.tolist()}"]
        if rq.violations:
            out.append(f"capacity arm recorded {len(rq.violations)} violation(s)")
        return out

    def measure(self, seconds: float) -> Measurement:
        n, first, baseline_s, ratios = self.n_inputs, {}, [], {"capacity": [], "baseline": []}

        def op(i):
            j = i % n
            cap, took = self._arm("capacity", j)
            base, base_took = self._arm("baseline", j)
            baseline_s.append(base_took)
            digests = (digest_rq(cap), digest_rq(base))
            if j in first:
                return took, ([] if digests == first[j] else
                              [f"round {i} codes differ from an earlier round on corpus {j}"])
            first[j] = digests
            ratios["capacity"].append(float(self.ratio(cap, j).max()))
            ratios["baseline"].append(float(self.ratio(base, j).max()))
            return took, self.capacity_problems(cap, j)

        small = corpus.generate_corpus(dataclasses.replace(self.synths[0], n_items=1000))
        for arm in self.arms.values():
            pipeline.run_quantizer(arm, small)  # warm-up
        m = closed_loop(op, seconds, n + 1)
        if m.latencies:
            m.named["quantize_s"] = (float(np.median(m.latencies)), "s")
            m.named["quantize_baseline_s"] = (float(np.median(baseline_s)), "s")
            m.named["max_load_over_cap"] = (max(ratios["capacity"]), "ratio")
            m.named["baseline_max_load_over_cap"] = (max(ratios["baseline"]), "ratio")
        return m

    def unit(self, tracer=None):
        cap, took = self._arm("capacity")
        base, base_took = self._arm("baseline")
        return {"capacity": digest_rq(cap), "baseline": digest_rq(base)}, took + base_took

    def check_trace(self, tr, out) -> list:
        return []


@dataclass
class Deployment:
    """What serving needs: a model read back from its checkpoint, and a trie."""

    params: object
    trie: object
    contexts: list  # (behavior, bos) per logged request, in request-id order
    load_ratio: float
    problems: list


class DecodeWorkload:
    """Retrieval requests against trained models and ~8.6k-path tries."""

    name = "decode-10k"
    # the host swings request latency between two levels for seconds at a
    # time; the median falls on either, p90 stays steady (README.md)
    latency_percentile = 90
    beam_width = 32
    top_k = 20

    def __init__(self, seed: int, out_dir, n_items: int = 10_000, n_requests: int = 1000,
                 unit_requests: int = 500, n_inputs: int = 3):
        self.out_dir = str(out_dir)
        self.unit_requests = unit_requests
        self.n_inputs = self.setup_reps = n_inputs
        self.cfgs = [pipeline.load_config({
            "seed": input_seed(seed, j),
            "corpus": {"n_items": n_items, "n_requests": n_requests},
            "quantizer": {"k": 32, "n_layers": 3},
            "tokenizer": {"attr_chain": ["l2", "l3"]},
            "train": {"epochs": 1},
        }) for j in range(n_inputs)]
        self.tau = self.cfgs[0].quantizer.tau
        self.deployments = [None] * n_inputs

    def setup(self, j):
        cold_import()
        j %= self.n_inputs
        cfg = self.cfgs[j]
        synth = dataclasses.replace(cfg.corpus, seed=cfg.seed)
        corp = corpus.generate_corpus(synth)
        log = corpus.generate_interactions(corp, synth)
        rq = pipeline.run_quantizer(cfg, corp)
        space, paths = pipeline.build_sequences(cfg, corp, rq.sids)
        train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
        params = pipeline.init_model(cfg, corp, space)
        params, _ = pipeline.train_model(cfg, params, train_set)
        ckpt = os.path.join(self.out_dir, f"decode-checkpoint-{j}.json")
        scorer.save_checkpoint(params, ckpt)
        loaded = scorer.load_checkpoint(ckpt)
        problems = [f"checkpoint round trip changed tensor {n}"
                    for n, a in params.tensors.items() if not np.array_equal(a, loaded.tensors[n])]
        contexts = pipeline.request_contexts(cfg, log, space)
        contexts = [contexts[r] for r in sorted(contexts)]
        n_bos = len({bos for _, bos in contexts})
        if n_bos != space.n_task_tokens:
            problems.append(f"contexts cover {n_bos} of {space.n_task_tokens} BOS tokens")
        ratio = load_over_cap(rq.codes_matrix(), corp.weights(), cfg.quantizer.k, self.tau)
        self.deployments[j] = Deployment(loaded, decoder.build_trie(paths), contexts,
                                         float(ratio.max()), problems)

    def stream(self, j):
        """Context indices of input j's request stream: seeded, with repeats."""
        rng = np.random.default_rng([self.cfgs[j].seed, 2])
        while True:
            yield from rng.integers(0, len(self.deployments[j].contexts), size=1024).tolist()

    def request(self, j, ctx):
        d = self.deployments[j]
        behavior, bos = d.contexts[ctx]
        model = scorer.NeuralSequenceModel(d.params, behavior, bos)
        return decoder.beam_search(model, d.trie, self.beam_width, self.top_k)

    def measure(self, seconds: float) -> Measurement:
        n = self.n_inputs
        streams, first, repeats = [self.stream(j) for j in range(n)], {}, 0

        def op(i):
            # each answer is checked as it is served; only the first answer
            # to each context is kept, for the repeats to match against
            nonlocal repeats
            j = i % n
            ctx = next(streams[j])
            t0 = perf_counter()
            cands = self.request(j, ctx)
            took = perf_counter() - t0
            problems = candidate_problems(cands, self.deployments[j].trie, self.top_k)
            if (j, ctx) in first:
                repeats += 1
                if cands != first[j, ctx]:
                    problems.append(f"request {i} repeats a context with other candidates")
            else:
                first[j, ctx] = cands
            return took, problems

        warm_up = self.stream(0)
        for _ in range(20):
            self.request(0, next(warm_up))
        m = closed_loop(op, seconds, n)
        for d in self.deployments:
            if d.problems:
                m.failed += 1
                m.problems += d.problems
        if m.latencies:
            lat = np.array(m.latencies)
            m.named = {
                "decode_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
                "decode_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
                "decode_p99_ms": (float(np.percentile(lat, 99)) * 1e3, "ms"),
                "decode_rps": (len(lat) / float(lat.sum()), "1/s"),
                "repeat_share": (repeats / len(lat), "ratio"),
                "max_load_over_cap": (max(d.load_ratio for d in self.deployments), "ratio"),
            }
        return m

    def unit(self, tracer=None):
        stream, out = self.stream(0), []
        t0 = perf_counter()
        for i in range(self.unit_requests):
            if tracer is not None:
                tracer.request = f"unit-{i}"
            out.append(self.request(0, next(stream)))
        return out, perf_counter() - t0

    def check_trace(self, tr, out) -> list:
        trie = self.deployments[0].trie
        return [p for cands in out for p in candidate_problems(cands, trie, self.top_k)]


WORKLOADS = {w.name: w for w in (PipelineWorkload, QuantizeWorkload, DecodeWorkload)}
# run by hand only, not listed in BENCHMARK.json: on a shared host its
# spread from run to run exceeds the bound (README.md)
BY_HAND = ("quantize-10k-skewed",)
