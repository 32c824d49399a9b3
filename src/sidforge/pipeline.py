"""End-to-end wiring: run configuration, dataset assembly, pipeline steps.

One JSON run config drives every stage; its SHA-256 digest and the global
seed are stamped into every artifact (inline for single-document JSON,
sidecar ``<name>.meta.json`` for JSONL files) so reruns are auditable and
bit-reproducibility is checkable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from . import alignment, corpus as corpus_mod, decoder, evaluation, quantizer, scorer, tokenizer
from .analysis import entropy_report, exposure_report


class ConfigError(ValueError):
    pass


@dataclass
class QuantizerConfig:
    n_layers: int = 3
    k: int = 16
    tau: float | None = 1.05  # None = unbounded (plain residual K-means)
    max_iter: int = 50
    eps_conv: float = 1e-6
    strict: bool = False
    method: str = "capacity"  # "capacity" | "baseline" (tau ignored: no cap)

    def __post_init__(self):
        if self.method not in ("capacity", "baseline"):
            raise ConfigError(
                f"quantizer.method must be 'capacity' or 'baseline', got {self.method!r}"
            )


@dataclass
class TokenizerConfig:
    attr_chain: tuple = ("l2", "l3")
    d_hash: int = 16
    m_hashes: int = 3
    p1: int = 31
    p2: int = 37
    pairs: tuple | None = None  # default: attrs crossed with first two SID layers

    def __post_init__(self):
        unknown = [f for f in self.attr_chain if f not in corpus_mod.ATTR_FIELDS]
        if unknown:
            raise ConfigError(f"tokenizer.attr_chain: unknown attribute(s) {unknown}; "
                              f"choose from {list(corpus_mod.ATTR_FIELDS)}")


@dataclass
class ScorerSection:
    d_model: int = 32
    prefix_window: int = 4
    max_behavior_len: int = 16


@dataclass
class TrainConfig:
    epochs: int = 3
    lr: float = 3e-4
    weight_decay: float = 1e-4
    batch_size: int = 64


@dataclass
class AlignConfig:
    epochs: int = 1
    lr: float = 1e-4
    batch_size: int = 64
    lam: float = 0.2  # advantage reweighting strength
    c_clip: float = 3.0
    eps: float = 1e-8
    beta: float = 0.1
    lambda_rft: float = 1.0
    lambda_dpo: float = 0.15  # ratio 20:3 scaled to lambda_rft = 1
    pairs_per_request: int = 4
    dpo_target: str = "last-sid"  # "last-sid" | "all"
    reward_weights: dict = field(default_factory=lambda: {"gmv": 0.7, "watch_time": 0.3})

    def __post_init__(self):
        if not self.lam >= 0:
            raise ConfigError(f"align.lam must be >= 0, got {self.lam!r}")
        if not self.c_clip > 0:
            raise ConfigError(f"align.c_clip must be > 0, got {self.c_clip!r}")
        if not self.eps > 0:
            raise ConfigError(f"align.eps must be > 0, got {self.eps!r}")
        if self.dpo_target not in ("last-sid", "all"):
            raise ConfigError(
                f"align.dpo_target must be 'last-sid' or 'all', got {self.dpo_target!r}")


@dataclass
class DecodeConfig:
    beam_width: int = 16
    top_k: int = 10
    objective: str = "click"
    scene: str = "main_feed"


@dataclass
class EvalConfig:
    ks: tuple = (5, 10, 20)
    beam_width: int = 32
    holdout_frac: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.holdout_frac < 1.0:
            raise ConfigError(f"eval.holdout_frac must be in [0, 1), got {self.holdout_frac!r}")
        if not self.ks or not all(1 <= k <= self.beam_width for k in self.ks):
            raise ConfigError(f"eval.ks must be non-empty and lie in [1, eval.beam_width = "
                              f"{self.beam_width}], got {list(self.ks)}")


@dataclass
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


def _build_section(cls, data, path):
    """``cls`` from a JSON object: nested dataclass fields recurse, tuple fields get tuples."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _build_section(hint, value, f"{path}.{name}")
        elif isinstance(value, list) and tuple in (hint, *typing.get_args(hint)):
            kwargs[name] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path_or_dict) -> RunConfig:
    """Build a RunConfig from a JSON file or dict; unknown keys are errors.

    ``gen_data`` seeds the corpus with the top-level seed, so a
    ``corpus.seed`` other than 0 or that seed would be recorded but never
    read, and is an error too.
    """
    data = (path_or_dict if isinstance(path_or_dict, dict)
            else corpus_mod.read_json_object(path_or_dict))
    cfg = _build_section(RunConfig, data, "config")
    if cfg.corpus.seed not in (0, cfg.seed):
        raise ConfigError(f"corpus.seed {cfg.corpus.seed} is never read: gen-data uses the "
                          f"top-level seed {cfg.seed}; leave corpus.seed out")
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=list))


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def artifact_meta(cfg: RunConfig) -> dict:
    return {"config_digest": config_digest(cfg), "seed": cfg.seed}


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
    """Item codes; ``method="baseline"`` runs with no capacity cap, whatever ``tau`` says."""
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
    """Per-item token paths (attr chain + SID codes), keyed by item_id.

    The BOS token is task-dependent and attached per sample, so sequences
    store only the decoded path.
    """
    space = build_space(cfg, corp)
    paths = {sid.item_id: tokenizer.build_sequence(item, sid, space)
             for sid, item in zip(sids, _items_of(corp, sids))}
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


def _items_of(corp, sids) -> list:
    """The corpus item of each SID; an item_id the corpus lacks raises ValueError."""
    by_id = corp.by_id()
    try:
        return [by_id[s.item_id] for s in sids]
    except KeyError as exc:
        raise ValueError(f"item_id {exc.args[0]!r} has a SID but is not in the corpus") from exc


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
    """Engaged events become teacher-forcing samples; split by request order.

    Each sample's behavior and BOS come from ``request_contexts``.  The
    final ``holdout_frac`` of requests by request_id order forms the eval
    split, disjoint from training.
    """
    by_id = corp.by_id()
    mean_gmv = float(np.mean([it.gmv for it in corp.items]))
    contexts = request_contexts(cfg, log, space)
    samples = []
    for req in sorted(log, key=lambda r: r.request_id):
        behavior, bos = contexts[req.request_id]
        for e in req.events:
            if e["level"] < corpus_mod.CLICK or e["item_id"] not in paths:
                continue
            samples.append(
                scorer.Sample(
                    behavior=behavior,
                    bos=bos,
                    tokens=paths[e["item_id"]],
                    alpha=alignment.engagement_alpha(
                        e["level"], by_id[e["item_id"]].gmv, mean_gmv
                    ),
                    metrics=dict(req.reward_metrics),
                    level=e["level"],
                    target_item=e["item_id"],
                    request_id=req.request_id,
                )
            )
    held_out = eval_request_ids(cfg, log)
    train_set = [s for s in samples if s.request_id not in held_out]
    eval_set = [s for s in samples if s.request_id in held_out]
    return train_set, eval_set


def eval_request_ids(cfg: RunConfig, log) -> set:
    """The final ``holdout_frac`` of requests by request_id order, rounded down."""
    ids = sorted(r.request_id for r in log)
    return set(ids[len(ids) - int(cfg.eval.holdout_frac * len(ids)):])


def require_eval_set(cfg: RunConfig, log, eval_set):
    """Refuse to evaluate on an empty holdout instead of falling back to training data."""
    if not eval_set:
        raise ConfigError(
            f"empty eval split: eval.holdout_frac={cfg.eval.holdout_frac} of "
            f"{len(log)} requests holds no engaged event with a known path"
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
        ctx = tokenizer.TaskContext(req.objective, req.scene)
        bos = tokenizer.task_bos_token(ctx, space)
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
    n_behavior = max(it.item_id for it in corp.items) + 1
    sc = scorer.ScorerConfig(
        d_model=cfg.scorer.d_model,
        prefix_window=cfg.scorer.prefix_window,
        seed=cfg.seed,
    )
    return scorer.init_scorer(space, spec, n_behavior, sc)


def train_model(cfg: RunConfig, params, train_set):
    opt = scorer.OptimizerConfig(
        lr=cfg.train.lr,
        weight_decay=cfg.train.weight_decay,
        batch_size=cfg.train.batch_size,
    )
    return scorer.train(train_set, params, opt, cfg.train.epochs)


def align_model(cfg: RunConfig, params, train_set, log, paths, space):
    """Joint advantage-reweighted NTP + preference-pair optimization.

    Preference pairs come from training requests only, never the holdout.
    """
    a = cfg.align
    reference = scorer.clone_params(params)
    held_out = eval_request_ids(cfg, log)
    contexts = {r: c for r, c in request_contexts(cfg, log, space).items() if r not in held_out}
    pairs = alignment.build_dpo_pairs(log, paths, contexts, a.pairs_per_request, cfg.seed)
    spec = alignment.RewardSpec(metric_weights=a.reward_weights)
    opt = scorer.OptimizerConfig(lr=a.lr, weight_decay=cfg.train.weight_decay,
                                 batch_size=a.batch_size)
    optimizer = scorer.AdamW(params, opt)
    stop_grad = a.dpo_target == "last-sid"
    trace = []
    pair_cursor = 0
    for _ in range(a.epochs):
        for start in range(0, len(train_set), a.batch_size):
            batch = train_set[start:start + a.batch_size]
            normalized = alignment.minmax_normalize_metrics([s.metrics for s in batch])
            rewards = [alignment.composite_reward(m, spec) for m in normalized]
            adv = alignment.normalize_advantages(rewards, a.c_clip, a.eps)
            pair_batch = pairs[pair_cursor:pair_cursor + a.batch_size]
            pair_cursor = (pair_cursor + a.batch_size) % max(1, len(pairs))
            loss, grads = alignment.joint_loss(
                batch, pair_batch, params, reference, adv,
                lam=a.lam, beta=a.beta, stop_grad=stop_grad,
                lambda_rft=a.lambda_rft, lambda_dpo=a.lambda_dpo,
            )
            trace.append(loss / len(batch))
            optimizer.step(params, grads)
    return params, trace


def decode(cfg: RunConfig, params, trie, out_dir=None) -> list:
    """Top candidates for the configured task with no behavior context.

    Writes ``candidates.jsonl`` (with its meta sidecar) when ``out_dir`` is
    given.
    """
    ctx = tokenizer.TaskContext(cfg.decode.objective, cfg.decode.scene)
    bos = tokenizer.task_bos_token(ctx, params.space)
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
    """Exposure-concentration and attribute-entropy report over the item codes.

    Rows are items in item_id order; the attribute columns follow
    ``tokenizer.attr_chain``.  Writes ``analysis.json``.
    """
    sids = sorted(sids, key=lambda s: s.item_id)
    items = _items_of(corp, sids)
    codes = np.array([s.codes for s in sids])
    weights = np.array([it.exposure_weight for it in items], dtype=np.float64)
    attr_cols = [[corp.attr_vocabs[f][it.attrs[f]] for it in items]
                 for f in cfg.tokenizer.attr_chain]
    attrs = np.array(attr_cols).T if attr_cols else np.zeros((len(sids), 0), dtype=int)
    report = {
        "exposure": exposure_report(codes, weights),
        "entropy": {"per_layer": entropy_report(codes, attrs, weights)},
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
    train_set, eval_set = assemble_samples(cfg, corp, log, space, paths)
    require_eval_set(cfg, log, eval_set)
    params = init_model(cfg, corp, space)
    params, trace = train_model(cfg, params, train_set)
    params, align_trace = align_model(cfg, params, train_set, log, paths, space)
    scorer.save_checkpoint(params, os.path.join(out_dir, "checkpoint.json"),
                           meta=artifact_meta(cfg))
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
