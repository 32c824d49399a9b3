"""Single entry-point command wiring the pipeline from a JSON run config.

Subcommands read and write the documented artifact files inside a run
directory; every artifact carries the config digest and seed (inline or
via a ``.meta.json`` sidecar).  Exit status 0 on success, 1 with a
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod, decoder, evaluation, pipeline, quantizer, scorer, tokenizer
from .analysis import entropy_report, exposure_report


def _add_common(p):
    p.add_argument("--config", help="JSON run config; defaults apply when omitted")
    p.add_argument("--seed", type=int, help="override the global seed")
    p.add_argument("--out", default="run", help="run directory (default: run)")


def _resolve_config(args) -> pipeline.RunConfig:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _data_dir(args):
    return args.data_dir if getattr(args, "data_dir", None) else args.out


def _load_corpus_and_log(data_dir):
    corp = corpus_mod.load_items(os.path.join(data_dir, "items.jsonl"))
    log = corpus_mod.load_interactions(os.path.join(data_dir, "interactions.jsonl"))
    return corp, log


def _load_space(data_dir):
    path = os.path.join(data_dir, "space.json")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return tokenizer.SequenceSpace.from_dict(doc["space"])
    except KeyError as exc:
        raise tokenizer.TokenizerError(f"{path}: missing key {exc.args[0]!r}") from exc


def _cmd_gen_data(args):
    cfg = _resolve_config(args)
    corp, log = pipeline.gen_data(cfg, args.out)
    print(f"wrote {len(corp)} items and {len(log)} requests to {args.out}")
    return 0


def _cmd_quantize(args):
    cfg = _resolve_config(args)
    q = cfg.quantizer
    if args.tau is not None:
        q = dataclasses.replace(q, tau=None if args.tau in ("inf", "none") else float(args.tau))
    if args.method:
        q = dataclasses.replace(q, method=args.method)
    if args.strict_capacity:
        q = dataclasses.replace(q, strict=True)
    cfg = dataclasses.replace(cfg, quantizer=q)
    corp, _ = _load_corpus_and_log(_data_dir(args))
    result = pipeline.run_quantizer(cfg, corp, args.out)
    loads = [lr.loads.max() for lr in result.layer_results]
    print(f"quantized {len(corp)} items; max layer loads {['%.1f' % v for v in loads]}; "
          f"{len(result.violations)} violation(s)")
    return 0


def _cmd_analyze(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, _ = _load_corpus_and_log(data_dir)
    sids = quantizer.load_sids(os.path.join(data_dir, "sids.jsonl"))
    by_id = corp.by_id()
    order = sorted(s.item_id for s in sids)
    sid_by_id = {s.item_id: s for s in sids}
    codes = np.array([sid_by_id[i].codes for i in order])
    weights = np.array([by_id[i].exposure_weight for i in order], dtype=np.float64)
    attr_cols = []
    for f in cfg.tokenizer.attr_chain:
        vocab = corp.attr_vocabs[f]
        attr_cols.append([vocab[by_id[i].attrs[f]] for i in order])
    attrs = np.array(attr_cols).T if attr_cols else np.zeros((len(order), 0), dtype=int)
    report = {
        "exposure": exposure_report(codes, weights).as_dict(),
        "entropy": entropy_report(codes, attrs, weights).as_dict(),
        "meta": pipeline.artifact_meta(cfg),
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "analysis.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)
    print(f"wrote {out_path}")
    return 0


def _cmd_build_seqs(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, _ = _load_corpus_and_log(data_dir)
    sids = quantizer.load_sids(os.path.join(data_dir, "sids.jsonl"))
    space, paths = pipeline.build_sequences(cfg, corp, sids, args.out)
    print(f"wrote {len(paths)} sequences over {space.n_steps} steps")
    return 0


def _cmd_train(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, log = _load_corpus_and_log(data_dir)
    space = _load_space(data_dir)
    paths = pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"))
    train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
    params = pipeline.init_model(cfg, corp, space)
    params, trace = pipeline.train_model(cfg, params, train_set)
    os.makedirs(args.out, exist_ok=True)
    scorer.save_checkpoint(params, os.path.join(args.out, "checkpoint.json"),
                           meta=pipeline.artifact_meta(cfg))
    print(f"trained on {len(train_set)} samples; "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}")
    return 0


def _cmd_align(args):
    cfg = _resolve_config(args)
    a = cfg.align
    overrides = {}
    if args.lambda_rft is not None:
        overrides["lambda_rft"] = args.lambda_rft
    if args.lambda_dpo is not None:
        overrides["lambda_dpo"] = args.lambda_dpo
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.c_clip is not None:
        overrides["c_clip"] = args.c_clip
    if args.pairs_per_request is not None:
        overrides["pairs_per_request"] = args.pairs_per_request
    if args.dpo_target is not None:
        overrides["dpo_target"] = args.dpo_target
    cfg = dataclasses.replace(cfg, align=dataclasses.replace(a, **overrides))
    data_dir = _data_dir(args)
    corp, log = _load_corpus_and_log(data_dir)
    space = _load_space(data_dir)
    paths = pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"))
    train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
    params = scorer.load_checkpoint(os.path.join(data_dir, "checkpoint.json"))
    params, trace = pipeline.align_model(cfg, params, train_set, log, paths, space)
    os.makedirs(args.out, exist_ok=True)
    scorer.save_checkpoint(params, os.path.join(args.out, "aligned_checkpoint.json"),
                           meta=pipeline.artifact_meta(cfg))
    print(f"aligned over {len(trace)} batches; final joint loss {trace[-1]:.4f}"
          if trace else "aligned (no batches)")
    return 0


def _checkpoint_path(data_dir):
    aligned = os.path.join(data_dir, "aligned_checkpoint.json")
    return aligned if os.path.exists(aligned) else os.path.join(data_dir, "checkpoint.json")


def _cmd_decode(args):
    cfg = _resolve_config(args)
    d = cfg.decode
    if args.beam_width is not None:
        d = dataclasses.replace(d, beam_width=args.beam_width)
    if args.top_k is not None:
        d = dataclasses.replace(d, top_k=args.top_k)
    if args.task is not None:
        objective, _, scene = args.task.partition(":")
        d = dataclasses.replace(d, objective=objective, scene=scene)
    cfg = dataclasses.replace(cfg, decode=d)
    data_dir = _data_dir(args)
    paths = pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"))
    params = scorer.load_checkpoint(_checkpoint_path(data_dir))
    candidates = pipeline.decode(cfg, params, decoder.build_trie(paths), args.out)
    print(f"wrote {len(candidates)} candidates to {os.path.join(args.out, 'candidates.jsonl')}")
    return 0


def _cmd_eval(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, log = _load_corpus_and_log(data_dir)
    paths = pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"))
    params = scorer.load_checkpoint(_checkpoint_path(data_dir))
    _, eval_set = pipeline.assemble_samples(cfg, corp, log, params.space, paths)
    pipeline.require_eval_set(cfg, log, eval_set)
    trie = decoder.build_trie(paths)
    report = evaluation.evaluate_model(
        params, trie, eval_set, ks=cfg.eval.ks, beam_width=cfg.eval.beam_width,
        metadata=pipeline.artifact_meta(cfg),
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, sort_keys=True)
    print(f"token HR@3 mean {report.token_hr3_mean:.3f}; "
          f"HR@{max(cfg.eval.ks)} {report.hr_at[max(cfg.eval.ks)]:.3f}")
    return 0


def _cmd_ablate(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, log = _load_corpus_and_log(data_dir)
    chains = [tuple(c) for c in json.loads(args.chains)] if args.chains else \
        [(), ("l2", "l3")]
    methods = args.methods.split(",") if args.methods else ["capacity", "baseline"]
    reports = pipeline.ablation_run(cfg, corp, log, chains, methods)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "ablation.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({name: r.as_dict() for name, r in reports.items()}, fh, sort_keys=True)
    for name, r in reports.items():
        print(f"{name}: token HR@3 mean {r.token_hr3_mean:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidforge",
        description="capacity-balanced semantic IDs with attribute-prefixed decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate items.jsonl and interactions.jsonl")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("quantize", help="fit codebooks and item codes")
    _add_common(p)
    p.add_argument("--data-dir", help="directory with items.jsonl (default: --out)")
    p.add_argument("--tau", help="capacity tolerance; 'inf' disables the cap")
    p.add_argument("--method", choices=["capacity", "baseline"])
    p.add_argument("--strict-capacity", action="store_true",
                   help="fail instead of recording capacity violations")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("analyze", help="exposure concentration and entropy report")
    _add_common(p)
    p.add_argument("--data-dir")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("build-seqs", help="attribute+SID token paths per item")
    _add_common(p)
    p.add_argument("--data-dir")
    p.set_defaults(func=_cmd_build_seqs)

    p = sub.add_parser("train", help="next-token training of the scorer")
    _add_common(p)
    p.add_argument("--data-dir")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("align", help="advantage-reweighted + preference-pair tuning")
    _add_common(p)
    p.add_argument("--data-dir")
    p.add_argument("--lambda-rft", type=float)
    p.add_argument("--lambda-dpo", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c-clip", type=float)
    p.add_argument("--pairs-per-request", type=int)
    p.add_argument("--dpo-target", choices=["last-sid", "all"])
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("decode", help="trie-constrained beam search")
    _add_common(p)
    p.add_argument("--data-dir")
    p.add_argument("--beam-width", type=int)
    p.add_argument("--top-k", type=int)
    p.add_argument("--task", help="objective:scene, e.g. click:main_feed")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="hit-ratio report on the holdout split")
    _add_common(p)
    p.add_argument("--data-dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="attribute-chain x quantizer grid")
    _add_common(p)
    p.add_argument("--data-dir")
    p.add_argument("--chains", help='JSON list of chains, e.g. [[],["l2","l3"]]')
    p.add_argument("--methods", help="comma-separated: capacity,baseline")
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"sidforge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
