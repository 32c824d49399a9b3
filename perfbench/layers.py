"""Where the traced run hooks into sidforge, and the per-layer metrics.

The layers are sidforge's modules. Each hook names the binding a caller
looks up at call time, so wrapping it times every call made through it:

* a module attribute, e.g. ``pipeline.run_pipeline`` calls
  ``evaluation.evaluate_model``;
* a name imported into another module, e.g. ``evaluation.beam_search``
  and ``scorer.content_summary_rows``;
* a class attribute, e.g. ``NeuralSequenceModel.step_logprobs``;
* a default argument: ``scorer.train_epoch`` reaches
  ``ntp_loss_and_grad`` through its ``loss_and_grad`` default.

Only public functions are hooked. Spans inside the program are left to the
program itself.
"""

from __future__ import annotations

import inspect
import math
import os

import numpy as np

from sidforge import alignment, corpus, decoder, evaluation, pipeline, quantizer, scorer, tokenizer

MODULES = ("pipeline", "corpus", "quantizer", "tokenizer", "scorer", "alignment",
           "decoder", "evaluation")

PIPELINE_STAGES = ("gen_data", "run_quantizer", "build_sequences", "assemble_samples",
                   "train_model", "align_model")

_LAYER_SIGNATURE = inspect.signature(quantizer.capacity_kmeans_layer)


def _arm(tau) -> str:
    return "baseline" if tau is None or math.isinf(tau) else "capacity"


def _rq_arm(args, kwargs, result):
    return _arm(kwargs["tau"] if "tau" in kwargs else args[3])


def _layer_attrs(args, kwargs, result):
    bound = _LAYER_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    mean_load = float(np.sum(a["weights"])) / a["k"]
    return {
        "arm": _arm(a["tau"]),
        "layer": int(a["layer"]),
        "n_iter": int(result.n_iter),
        "max_load_over_mean": float(result.loads.max()) / mean_load,
        "residuals": a["residuals"],  # kept in memory for displaced_items
        "result": result,
    }


def _checkpoint_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def hooks():
    """``(owner, attr, span name, attrs)`` for :meth:`Tracer.install`."""
    out = [(pipeline, "run_pipeline", "pipeline.run_pipeline", None)]
    out += [(pipeline, f, f"pipeline.{f}", None)
            for f in PIPELINE_STAGES + ("init_model", "request_contexts")]
    out += [
        (corpus, "generate_corpus", "corpus.generate_corpus", None),
        (corpus, "generate_interactions", "corpus.generate_interactions", None),
        (quantizer, "capacity_constrained_rq", "quantizer.capacity_constrained_rq", _rq_arm),
        (quantizer, "capacity_kmeans_layer", "quantizer.capacity_kmeans_layer", _layer_attrs),
        (quantizer, "kmeanspp_init", "quantizer.kmeanspp_init", None),
        (tokenizer, "build_sequence", "tokenizer.build_sequence", None),
        (scorer, "content_summary_rows", "tokenizer.content_summary_rows", None),
        (scorer, "train", "scorer.train", None),
        (scorer.train_epoch, "loss_and_grad", "scorer.ntp_loss_and_grad",
         lambda a, k, r: len(a[0])),
        (scorer.AdamW, "step", "scorer.adamw_step", None),
        (scorer, "save_checkpoint", "scorer.save_checkpoint", _checkpoint_bytes),
        (scorer, "load_checkpoint", "scorer.load_checkpoint", None),
        (scorer.NeuralSequenceModel, "__init__", "scorer.context_init", None),
        (scorer.NeuralSequenceModel, "step_logprobs", "scorer.step_logprobs", None),
        (alignment, "build_dpo_pairs", "alignment.build_dpo_pairs", lambda a, k, r: len(r)),
        (alignment, "joint_loss", "alignment.joint_loss", None),
        (alignment, "rft_loss_and_grad", "alignment.rft_loss_and_grad", None),
        (alignment, "dpo_loss_and_grad", "alignment.dpo_loss_and_grad", None),
        (decoder, "build_trie", "decoder.build_trie", None),
        (decoder, "beam_search", "decoder.beam_search", None),
        (evaluation, "beam_search", "decoder.beam_search", None),
        (decoder.PathTrie, "children", "decoder.trie_children", lambda a, k, r: len(r)),
        (evaluation, "evaluate_model", "evaluation.evaluate_model", None),
        (evaluation, "token_hr3", "evaluation.token_hr3", None),
        (evaluation, "bs_hit_ratio", "evaluation.bs_hit_ratio", None),
    ]
    return out


# name, unit, better. A metric a workload does not exercise reads 0.
PER_LAYER = (
    [(f"pipeline.{s}_s", "s", "lower") for s in PIPELINE_STAGES]
    + [
        ("pipeline.save_checkpoint_s", "s", "lower"),
        ("pipeline.evaluate_s", "s", "lower"),
        ("pipeline.decode_s", "s", "lower"),
        ("evaluation.token_hr3_s", "s", "lower"),
        ("evaluation.bs_hit_ratio_s", "s", "lower"),
        ("evaluation.beam_searches", "count", "lower"),
        ("scorer.ntp_loss_and_grad_ms", "ms", "lower"),
        ("scorer.train_samples_per_s", "1/s", "higher"),
        ("scorer.adamw_step_ms", "ms", "lower"),
        ("scorer.checkpoint_bytes", "bytes", "lower"),
        ("scorer.save_checkpoint_s", "s", "lower"),
        ("scorer.load_checkpoint_s", "s", "lower"),
        ("scorer.context_init_us", "us", "lower"),
        ("alignment.joint_loss_ms", "ms", "lower"),
        ("alignment.rft_loss_and_grad_ms", "ms", "lower"),
        ("alignment.dpo_loss_and_grad_ms", "ms", "lower"),
        ("alignment.pairs", "count", "lower"),
        ("quantizer.capacity_s", "s", "lower"),
        ("quantizer.baseline_s", "s", "lower"),
    ]
    + [(f"quantizer.{arm}.layer{layer}.{field}", unit, "lower")
       for arm in ("capacity", "baseline") for layer in range(3)
       for field, unit in (("s", "s"), ("n_iter", "count"), ("s_per_iter", "s"),
                           ("max_load_over_cap", "ratio"))]
    + [
        ("quantizer.displaced_items", "count", "lower"),
        ("quantizer.kmeanspp_init_s", "s", "lower"),
        ("decoder.beam_search_ms", "ms", "lower"),
        ("decoder.step_logprobs_calls_per_search", "count", "lower"),
        ("decoder.step_logprobs_us", "us", "lower"),
        ("decoder.expansions_per_search", "count", "lower"),
        ("tokenizer.content_summary_rows_calls_per_search", "count", "lower"),
        ("corpus.generate_corpus_s", "s", "lower"),
        ("corpus.generate_interactions_s", "s", "lower"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _displaced(attrs) -> int:
    """Items whose final code is not the nearest final centroid."""
    pts = np.asarray(attrs["residuals"], dtype=np.float64)
    c = attrs["result"].centroids
    d2 = (pts * pts).sum(axis=1)[:, None] - 2.0 * pts @ c.T + (c * c).sum(axis=1)[None, :]
    return int(np.count_nonzero(np.argmin(d2, axis=1) != attrs["result"].assignments))


def per_layer_metrics(tr, tau: float, overhead_pct: float) -> dict:
    """Every PER_LAYER metric from one traced pass (set-up and one unit)."""
    spans = tr.spans
    m = {f"pipeline.{s}_s": tr.total(f"pipeline.{s}") for s in PIPELINE_STAGES}
    m["pipeline.save_checkpoint_s"] = sum(
        spans[i][2] - spans[i][1] for i, s in enumerate(spans)
        if s[0] == "scorer.save_checkpoint" and tr.has_ancestor(i, "pipeline.run_pipeline"))
    m["pipeline.evaluate_s"] = tr.total("evaluation.evaluate_model")
    # the stage after eval: report.json, the candidate beam and its file
    m["pipeline.decode_s"] = sum(
        spans[s[3]][2] - s[2] for s in tr.select("evaluation.evaluate_model")
        if s[3] >= 0 and spans[s[3]][0] == "pipeline.run_pipeline")

    m["evaluation.token_hr3_s"] = tr.total("evaluation.token_hr3")
    m["evaluation.bs_hit_ratio_s"] = tr.total("evaluation.bs_hit_ratio")
    m["evaluation.beam_searches"] = tr.count_under("decoder.beam_search",
                                                   "evaluation.bs_hit_ratio")

    ntp = tr.select("scorer.ntp_loss_and_grad")
    train_s = tr.total("scorer.train")
    m["scorer.ntp_loss_and_grad_ms"] = tr.mean("scorer.ntp_loss_and_grad") * 1e3
    m["scorer.train_samples_per_s"] = sum(s[5] for s in ntp) / train_s if train_s else 0.0
    m["scorer.adamw_step_ms"] = tr.mean("scorer.adamw_step") * 1e3
    saves = tr.select("scorer.save_checkpoint")
    m["scorer.checkpoint_bytes"] = saves[-1][5] if saves else 0
    m["scorer.save_checkpoint_s"] = tr.mean("scorer.save_checkpoint")
    m["scorer.load_checkpoint_s"] = tr.mean("scorer.load_checkpoint")
    m["scorer.context_init_us"] = tr.mean("scorer.context_init") * 1e6

    for f in ("joint_loss", "rft_loss_and_grad", "dpo_loss_and_grad"):
        m[f"alignment.{f}_ms"] = tr.mean(f"alignment.{f}") * 1e3
    m["alignment.pairs"] = sum(s[5] for s in tr.select("alignment.build_dpo_pairs"))

    rq = tr.select("quantizer.capacity_constrained_rq")
    layers = tr.select("quantizer.capacity_kmeans_layer")
    for arm in ("capacity", "baseline"):
        m[f"quantizer.{arm}_s"] = sum(s[2] - s[1] for s in rq if s[5] == arm)
        for layer in range(3):
            mine = [s for s in layers if s[5]["arm"] == arm and s[5]["layer"] == layer]
            secs = sum(s[2] - s[1] for s in mine)
            n_iter = sum(s[5]["n_iter"] for s in mine)
            key = f"quantizer.{arm}.layer{layer}"
            m[f"{key}.s"] = secs
            m[f"{key}.n_iter"] = n_iter
            m[f"{key}.s_per_iter"] = secs / n_iter if n_iter else 0.0
            m[f"{key}.max_load_over_cap"] = max(
                (s[5]["max_load_over_mean"] / tau for s in mine), default=0.0)
    m["quantizer.displaced_items"] = sum(_displaced(s[5]) for s in layers
                                         if s[5]["arm"] == "capacity")
    m["quantizer.kmeanspp_init_s"] = tr.total("quantizer.kmeanspp_init")

    n_search = len(tr.select("decoder.beam_search"))
    per_search = (lambda x: x / n_search) if n_search else (lambda x: 0.0)
    m["decoder.beam_search_ms"] = tr.mean("decoder.beam_search") * 1e3
    m["decoder.step_logprobs_calls_per_search"] = per_search(
        len(tr.select("scorer.step_logprobs")))
    m["decoder.step_logprobs_us"] = tr.mean("scorer.step_logprobs") * 1e6
    m["decoder.expansions_per_search"] = per_search(
        sum(s[5] for s in tr.select("decoder.trie_children")))
    m["tokenizer.content_summary_rows_calls_per_search"] = per_search(
        tr.count_under("tokenizer.content_summary_rows", "decoder.beam_search"))

    m["corpus.generate_corpus_s"] = tr.total("corpus.generate_corpus")
    m["corpus.generate_interactions_s"] = tr.total("corpus.generate_interactions")

    self_s = tr.self_times()
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_s.get(mod, 0.0)
    m["trace.overhead_pct"] = overhead_pct
    m["trace.spans"] = len(spans)
    return m


def exact_counts(tr) -> dict:
    """Counts from the unit's spans that must repeat when the unit reruns."""
    def sel(name):
        return tr.select(name, request_prefix="unit")

    out = {f"calls.{k}": v for k, v in sorted(tr.counts(request_prefix="unit").items())}
    layers = sel("quantizer.capacity_kmeans_layer")
    for s in layers:
        out[f"n_iter.{s[5]['arm']}.layer{s[5]['layer']}"] = s[5]["n_iter"]
    out["displaced"] = sum(_displaced(s[5]) for s in layers if s[5]["arm"] == "capacity")
    out["pairs"] = sum(s[5] for s in sel("alignment.build_dpo_pairs"))
    out["expansions"] = sum(s[5] for s in sel("decoder.trie_children"))
    return out
