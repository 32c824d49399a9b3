"""End-to-end wiring: run configuration, dataset assembly, pipeline steps.

One JSON run config drives every stage; its SHA-256 digest and the global
seed are stamped into every artifact (inline for single-document JSON,
sidecar ``<name>.meta.json`` for JSONL files) so reruns are auditable and
bit-reproducibility is checkable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import typing
from dataclasses import field
from fractions import Fraction

import numpy as np

from . import alignment, corpus as corpus_mod, decoder, evaluation, quantizer, scorer, tokenizer
from .analysis import entropy_report, exposure_report
from .corpus import ConfigError, config_section


def _cross_keys(cfg):
    """The checks that read two keys, each naming the key it rejects."""
    a, d, e, t = cfg.align, cfg.decode, cfg.eval, cfg.tokenizer
    if not a.lam * a.c_clip < 1:  # else a clipped advantage can weigh a sample <= 0
        raise ConfigError(f"align.lam * align.c_clip must be < 1, got align.lam = {a.lam!r} "
                          f"and align.c_clip = {a.c_clip!r}")
    if not 1 <= d.top_k <= d.beam_width:
        raise ConfigError(f"decode.top_k must lie in [1, decode.beam_width = "
                          f"{d.beam_width}], got {d.top_k!r}")
    if not e.ks or len(set(e.ks)) < len(e.ks) or not all(1 <= k <= e.beam_width for k in e.ks):
        raise ConfigError(f"eval.ks must be non-empty, distinct and lie in [1, eval.beam_width "
                          f"= {e.beam_width}], got {list(e.ks)}")
    if t.p1 == t.p2:
        raise ConfigError(f"tokenizer.p1 and tokenizer.p2 must differ, got {t.p1} for both")
    if cfg.corpus.seed not in (0, cfg.seed):
        raise ConfigError(f"corpus.seed {cfg.corpus.seed} is never read: gen-data uses the "
                          f"top-level seed {cfg.seed}; leave corpus.seed out")
    n_steps = len(t.attr_chain) + cfg.quantizer.n_layers
    if t.pairs == () or not all(1 <= s <= n_steps for p in t.pairs or () for s in p):
        raise ConfigError(f"tokenizer.pairs must be null or name steps in 1..{n_steps} (the "
                          f"tokenizer.attr_chain, then quantizer.n_layers), got {t.pairs!r}")


@config_section("quantizer", n_layers=">= 1", k=">= 1", tau=">= 1", max_iter=">= 1",
                eps_conv=">= 0")
class QuantizerConfig:
    n_layers: int = 3
    k: int = 16
    tau: float = 1.05
    max_iter: int = 50
    eps_conv: float = 1e-6
    strict: bool = False
    method: typing.Literal["capacity", "baseline"] = "capacity"  # the baseline ignores tau: no cap


@config_section("tokenizer", d_hash=">= 1", m_hashes=">= 1 and <= 3",
                p1=">= 1 and <= 2147483647", p2=">= 1 and <= 2147483647")
class TokenizerConfig:
    attr_chain: tuple[typing.Literal[corpus_mod.ATTR_FIELDS], ...] = ("l2", "l3")
    d_hash: int = 16
    m_hashes: int = 3
    p1: int = 31
    p2: int = 37
    pairs: tuple[tuple[int, int], ...] | None = None  # None: attrs x first two SID layers


@config_section("scorer", d_model=">= 1", prefix_window=">= 0", max_behavior_len=">= 1")
class ScorerSection:
    d_model: int = 32
    prefix_window: int = 4
    max_behavior_len: int = 16


@config_section("train", epochs=">= 1", lr="> 0", weight_decay=">= 0", batch_size=">= 1")
class TrainConfig:
    epochs: int = 3
    lr: float = 3e-4
    weight_decay: float = 1e-4
    batch_size: int = 64


@config_section("align", epochs=">= 0", lr="> 0", batch_size=">= 1", lam=">= 0", c_clip="> 0",
                eps="> 0", beta="> 0", lambda_rft=">= 0", lambda_dpo=">= 0",
                pairs_per_request=">= 1")
class AlignConfig:
    epochs: int = 1  # 0 = no alignment
    lr: float = 1e-4
    batch_size: int = 64
    lam: float = 0.2  # advantage reweighting strength
    c_clip: float = 3.0
    eps: float = 1e-8
    beta: float = 0.1
    lambda_rft: float = 1.0
    lambda_dpo: float = 0.15  # ratio 20:3 scaled to lambda_rft = 1
    pairs_per_request: int = 4
    dpo_target: typing.Literal["last-sid", "all"] = "last-sid"
    reward_weights: dict[typing.Literal[corpus_mod.REWARD_METRICS], float] = field(
        default_factory=lambda: {"gmv": 0.7, "watch_time": 0.3})


@config_section("decode", beam_width=">= 1")
class DecodeConfig:
    beam_width: int = 16
    top_k: int = 10
    objective: typing.Literal[corpus_mod.OBJECTIVES] = "click"
    scene: typing.Literal[corpus_mod.SCENES] = "main_feed"


@config_section("eval", beam_width=">= 1", holdout_frac=">= 0 and < 1")
class EvalConfig:
    ks: tuple[int, ...] = (5, 10, 20)
    beam_width: int = 32
    holdout_frac: float = 0.10


@config_section("", _cross_keys, seed=">= 0")
class RunConfig:
    seed: int = 0
    corpus: corpus_mod.SynthConfig = field(default_factory=corpus_mod.SynthConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    scorer: ScorerSection = field(default_factory=ScorerSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def load_config(path_or_dict) -> RunConfig:
    """Build a RunConfig from a JSON file or dict; unknown keys are errors."""
    data = (path_or_dict if isinstance(path_or_dict, dict)
            else corpus_mod.read_json_object(path_or_dict))
    return corpus_mod.conform(RunConfig, data, "config")


def config_to_dict(cfg: RunConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=list))


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def artifact_meta(cfg: RunConfig) -> dict:
    return {"config_digest": config_digest(cfg), "seed": cfg.seed}


# the config keys a checkpoint's meta records, each with its section and what
# another value would do to the samples that eval and align assemble
_TRAINED_WITH = {"holdout_frac": ("eval", "splits the log differently"),
                "max_behavior_len": ("scorer", "truncates each request's behavior differently")}


def checkpoint_meta(cfg: RunConfig) -> dict:
    """A checkpoint's meta: the artifact meta and the ``eval.holdout_frac`` and
    ``scorer.max_behavior_len`` that the model was fit with."""
    return {**artifact_meta(cfg), **{key: getattr(getattr(cfg, section), key)
                                     for key, (section, _) in _TRAINED_WITH.items()}}


def require_trained_split(cfg: RunConfig, meta, path):
    """Refuse the checkpoint ``path`` unless its ``meta`` records the values of
    ``cfg`` that :func:`checkpoint_meta` records: with another ``eval.holdout_frac``,
    the eval split would hold requests the model was trained on, or the training
    split held-out ones; with another ``scorer.max_behavior_len``, each sample
    would be conditioned on another history than the model was trained on."""
    for key, (section, effect) in _TRAINED_WITH.items():
        name, given = f"{section}.{key}", getattr(getattr(cfg, section), key)
        if not isinstance(meta, dict) or key not in meta:
            raise corpus_mod.CorpusFormatError(
                f"{path}: meta has no {key}, the {name} the model was trained with")
        trained = corpus_mod.expect("number", f"{path}: meta.{key}", meta[key],
                                    corpus_mod.CorpusFormatError)
        if trained != given:
            raise ConfigError(f"{path}: the model was trained with {name} {trained}, but the "
                              f"config gives {given}, which {effect}")


# ----------------------------------------------------------------------
# pipeline steps
# ----------------------------------------------------------------------

def gen_data(cfg: RunConfig, out_dir):
    """Generate and persist the corpus and interaction log.

    The global seed governs every pipeline stage, so it supersedes the
    corpus section's own seed field here.
    """
    synth = dataclasses.replace(cfg.corpus, seed=cfg.seed)
    corp = corpus_mod.generate_corpus(synth)
    log = corpus_mod.generate_interactions(corp, synth)
    corpus_mod.save_items(corp, os.path.join(out_dir, "items.jsonl"), artifact_meta(cfg))
    corpus_mod.save_interactions(log, os.path.join(out_dir, "interactions.jsonl"),
                                 artifact_meta(cfg))
    return corp, log


def run_quantizer(cfg: RunConfig, corp, out_dir=None):
    """Item codes: capacity-capped at ``tau`` times the mean load, or, for
    ``method="baseline"``, plain residual K-means with no cap and ``tau`` unread."""
    q = cfg.quantizer
    tau = None if q.method == "baseline" else q.tau
    result = quantizer.capacity_constrained_rq(
        corp, q.n_layers, q.k, tau, cfg.seed,
        max_iter=q.max_iter, eps_conv=q.eps_conv, strict=q.strict,
    )
    if out_dir is not None:
        quantizer.save_codebook(result.codebook, os.path.join(out_dir, "codebook.json"),
                                meta=artifact_meta(cfg))
        quantizer.save_sids(result.sids, os.path.join(out_dir, "sids.jsonl"), artifact_meta(cfg))
    return result


def build_space(cfg: RunConfig, corp) -> tokenizer.SequenceSpace:
    return tokenizer.SequenceSpace(
        attr_chain=tuple(cfg.tokenizer.attr_chain),
        attr_vocabs=corp.attr_vocabs,
        sid_sizes=(cfg.quantizer.k,) * cfg.quantizer.n_layers,
    )


def build_sequences(cfg: RunConfig, corp, sids, out_dir=None):
    """Per-item token paths (attr chain + SID codes), keyed by item_id; ``sids``
    must give every item of ``corp`` one SID.

    The BOS token is task-dependent and attached per sample, so sequences
    store only the decoded path.
    """
    space = build_space(cfg, corp)
    corp.require_every_item([s.item_id for s in sids], "SID")
    paths = {s.item_id: tokenizer.build_sequence(corp.items[s.item_id], s, space) for s in sids}
    if out_dir is not None:
        corpus_mod.write_jsonl(
            os.path.join(out_dir, "sequences.jsonl"),
            ({"item_id": item_id, "path": list(paths[item_id])} for item_id in sorted(paths)),
            artifact_meta(cfg))
        corpus_mod.write_json(os.path.join(out_dir, "space.json"),
                              {"space": space.as_dict(), "meta": artifact_meta(cfg)})
    return space, paths


def load_space(path) -> tokenizer.SequenceSpace:
    """space.json, as :func:`build_sequences` writes it."""
    return corpus_mod.read_document(path, "space", {"space", "meta"},
                                    lambda doc: tokenizer.SequenceSpace.from_dict(doc["space"]))


def load_sequences(path, space=None) -> dict:
    """item_id -> token path; given ``space``, every path must fit its steps."""
    def build(obj):
        tokens = tuple(corpus_mod.expect("integer", "path token", t) for t in obj["path"])
        if space is not None:
            space.check_path(tokens)
        return corpus_mod.expect("integer", "item_id", obj["item_id"]), tokens

    return dict(corpus_mod.read_records(path, "sequence", {"item_id", "path"}, build,
                                        unique="item_id"))


def assemble_samples(cfg: RunConfig, corp, log, space, paths):
    """Engaged events become teacher-forcing samples, one list per side of
    :func:`split_log`: (training samples, eval samples).

    Each sample's behavior and BOS come from ``request_contexts``, and its
    ``metrics`` is its request's ``reward_metrics`` dict itself.  ``paths``
    must hold the item of every engaged event; a missing one raises ``KeyError``.
    """
    items = corp.items
    mean_gmv = float(np.mean([it.gmv for it in items]))
    contexts = request_contexts(cfg, log, space)
    sides = ([], [])
    for samples, requests in zip(sides, split_log(cfg, log)):
        for req in requests:
            behavior, bos = contexts[req.request_id]
            for e in req.events:
                if e["level"] < corpus_mod.CLICK:
                    continue
                samples.append(
                    scorer.Sample(
                        behavior=behavior,
                        bos=bos,
                        tokens=paths[e["item_id"]],
                        alpha=alignment.engagement_alpha(
                            e["level"], items[e["item_id"]].gmv, mean_gmv
                        ),
                        metrics=req.reward_metrics,
                        level=e["level"],
                        target_item=e["item_id"],
                        request_id=req.request_id,
                    )
                )
    return sides


def split_log(cfg: RunConfig, log) -> tuple[list, list]:
    """(training requests, held-out requests), each in request_id order: the
    final ``eval.holdout_frac`` of requests by request_id order is held out,
    rounded down.

    The fraction counts as written, its shortest decimal: 0.29 of 100 requests
    is 29, though the float product 0.29 * 100 falls just below 29.
    """
    requests = sorted(log, key=lambda r: r.request_id)
    cut = len(requests) - int(Fraction(repr(cfg.eval.holdout_frac)) * len(requests))
    return requests[:cut], requests[cut:]


def require_eval_set(cfg: RunConfig, log, eval_set):
    """Refuse to evaluate on an empty holdout instead of falling back to training data."""
    if not eval_set:
        raise ConfigError(
            f"empty eval split: eval.holdout_frac={cfg.eval.holdout_frac} of "
            f"{len(log)} requests holds no engaged event"
        )


def request_contexts(cfg: RunConfig, log, space):
    """(behavior, bos) conditioning per request id.

    Behavior is the user's items engaged in earlier requests by request_id
    order, most recent last, truncated to ``scorer.max_behavior_len``.
    """
    history = {}
    contexts = {}
    max_len = cfg.scorer.max_behavior_len
    for req in sorted(log, key=lambda r: r.request_id):
        bos = tokenizer.task_bos_token(req.objective, req.scene, space)
        user_hist = history.setdefault(req.user_id, [])
        contexts[req.request_id] = (tuple(user_hist[-max_len:]), bos)
        for e in req.events:
            if e["level"] >= corpus_mod.CLICK:
                user_hist.append(e["item_id"])
    return contexts


def init_model(cfg: RunConfig, corp, space) -> scorer.ScorerParams:
    spec = tokenizer.hash_spec_for_space(
        space,
        pairs=cfg.tokenizer.pairs,
        m_hashes=cfg.tokenizer.m_hashes,
        p1=cfg.tokenizer.p1,
        p2=cfg.tokenizer.p2,
        d_hash=cfg.tokenizer.d_hash,
    )
    sc = scorer.ScorerConfig(
        d_model=cfg.scorer.d_model,
        prefix_window=cfg.scorer.prefix_window,
        seed=cfg.seed,
    )
    return scorer.init_scorer(space, spec, len(corp), sc)


def train_model(cfg: RunConfig, params, train_set):
    t = cfg.train
    return scorer.train(train_set, params, t.batch_size, t.epochs, t.lr, t.weight_decay)


def align_model(cfg: RunConfig, params, train_set, log, paths, space):
    """Joint advantage-reweighted NTP + preference-pair optimization.

    Preference pairs come from the training side of :func:`split_log` only,
    never the holdout.
    Global batch ``i`` (counted across epochs) takes the ``align.batch_size``
    pairs from ``(i * align.batch_size) % len(pairs)`` on, fewer at the end.
    Training requests that give no pair are a ``ConfigError`` unless
    ``align.lambda_dpo`` is 0, which aligns by RFT alone.
    At ``align.epochs`` 0 it does no work and returns ``params`` and an empty trace.
    """
    a = cfg.align
    if a.epochs == 0:
        return params, []
    reference = scorer.clone_params(params)
    # the held-out requests come last by id, so no training context reads them
    train_requests, _ = split_log(cfg, log)
    pairs = alignment.build_dpo_pairs(train_requests, paths,
                                      request_contexts(cfg, train_requests, space),
                                      a.pairs_per_request, cfg.seed)
    if not pairs and a.lambda_dpo > 0:
        raise ConfigError(f"align.lambda_dpo is {a.lambda_dpo}, but the training requests "
                          f"give no preference pair; set it to 0 to align without DPO")
    stop_grad = a.dpo_target == "last-sid"
    batch_index = itertools.count()

    def joint_step(batch, params):
        start = (next(batch_index) * a.batch_size) % max(1, len(pairs))
        rewards = alignment.batch_rewards([s.metrics for s in batch], a.reward_weights)
        adv = alignment.normalize_advantages(rewards, a.c_clip, a.eps)
        return alignment.joint_loss(
            batch, pairs[start:start + a.batch_size], params, reference, adv,
            lam=a.lam, beta=a.beta, stop_grad=stop_grad,
            lambda_rft=a.lambda_rft, lambda_dpo=a.lambda_dpo,
        )

    optimizer = scorer.AdamW(params, a.lr, cfg.train.weight_decay)
    trace = []
    for _ in range(a.epochs):
        params, t = scorer.train_epoch(train_set, params, a.batch_size, optimizer, joint_step)
        trace.extend(t)
    return params, trace


def decode(cfg: RunConfig, params, trie, out_dir=None) -> list:
    """Top candidates for the configured task with no behavior context.

    Writes ``candidates.jsonl`` (with its meta sidecar) when ``out_dir`` is
    given.
    """
    bos = tokenizer.task_bos_token(cfg.decode.objective, cfg.decode.scene, params.space)
    model = scorer.NeuralSequenceModel(params, (), bos)
    candidates = decoder.beam_search(model, trie, cfg.decode.beam_width, cfg.decode.top_k)
    if out_dir is not None:
        corpus_mod.write_jsonl(
            os.path.join(out_dir, "candidates.jsonl"),
            ({"path": list(c.path), "logprob": c.logprob, "item_ids": list(c.item_ids)}
             for c in candidates),
            artifact_meta(cfg))
    return candidates


def evaluate(cfg: RunConfig, params, trie, eval_set, out_dir=None) -> evaluation.EvalReport:
    """Hit-ratio report on ``eval_set``; writes ``report.json`` when ``out_dir`` is given."""
    report = evaluation.evaluate_model(
        params, trie, eval_set,
        ks=cfg.eval.ks, beam_width=cfg.eval.beam_width,
        metadata=artifact_meta(cfg),
    )
    if out_dir is not None:
        corpus_mod.write_json(os.path.join(out_dir, "report.json"), report.as_dict())
    return report


def analyze(cfg: RunConfig, corp, sids, out_dir) -> dict:
    """Exposure-concentration and attribute-entropy report over the item paths
    of :func:`build_sequences`: the SID codes, conditioned on the attribute tokens
    the decoder sees before them.  Rows are items in item_id order.  Writes
    ``analysis.json``.
    """
    space, paths = build_sequences(cfg, corp, sids)
    tokens = np.array([paths[i] for i in range(len(corp))])
    codes, weights = tokens[:, space.m:], corp.weights()
    report = {
        "exposure": exposure_report(codes, weights),
        "entropy": {"per_layer": entropy_report(codes, tokens[:, :space.m], weights)},
        "meta": artifact_meta(cfg),
    }
    corpus_mod.write_json(os.path.join(out_dir, "analysis.json"), report)
    return report


def run_pipeline(cfg: RunConfig, out_dir):
    """gen-data -> quantize -> sequences -> train -> align -> eval -> decode.

    Writes the artifacts of the CLI chain under the same names, except that
    the aligned model is saved as ``checkpoint.json``.
    """
    corp, log = gen_data(cfg, out_dir)
    rq = run_quantizer(cfg, corp, out_dir)
    space, paths = build_sequences(cfg, corp, rq.sids, out_dir)
    del rq  # each stage's output is held only while a later stage reads it
    train_set, eval_set = assemble_samples(cfg, corp, log, space, paths)
    require_eval_set(cfg, log, eval_set)
    params = init_model(cfg, corp, space)
    del corp
    params, trace = train_model(cfg, params, train_set)
    params, align_trace = align_model(cfg, params, train_set, log, paths, space)
    scorer.save_checkpoint(params, os.path.join(out_dir, "checkpoint.json"),
                           meta=checkpoint_meta(cfg))
    trie = decoder.build_trie(paths)
    report = evaluate(cfg, params, trie, eval_set, out_dir)
    decode(cfg, params, trie, out_dir)
    return report


def ablation_run(cfg: RunConfig, corp, log, attr_chains, quantizer_methods):
    """Train one arm per (attr_chain, quantizer method) with a shared budget.

    Every arm sees the same corpus, interaction log, seed, and epoch
    budget; only the attribute chain and the quantizer differ.  Arms are
    not aligned, and each report's metadata says so.
    """
    reports = {}
    for method in quantizer_methods:
        arm_cfg = dataclasses.replace(
            cfg, quantizer=dataclasses.replace(cfg.quantizer, method=method)
        )
        rq = run_quantizer(arm_cfg, corp)
        for chain in attr_chains:
            arm_cfg2 = dataclasses.replace(
                arm_cfg, tokenizer=dataclasses.replace(arm_cfg.tokenizer,
                                                       attr_chain=tuple(chain))
            )
            space, paths = build_sequences(arm_cfg2, corp, rq.sids)
            train_set, eval_set = assemble_samples(arm_cfg2, corp, log, space, paths)
            require_eval_set(arm_cfg2, log, eval_set)
            params = init_model(arm_cfg2, corp, space)
            params, _ = train_model(arm_cfg2, params, train_set)
            name = f"{method}:{'>'.join(chain) if chain else 'direct-sid'}"
            reports[name] = evaluate(arm_cfg2, params, decoder.build_trie(paths), eval_set)
            reports[name].metadata.update(arm=name, aligned=False)
    return reports
