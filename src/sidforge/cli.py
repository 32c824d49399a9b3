"""Single entry-point command wiring the pipeline from a JSON run config.

Subcommands read and write the documented artifact files inside a run
directory; every artifact carries the config digest and seed (inline or
via a ``.meta.json`` sidecar).  Exit status 0 on success, 1 with a
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import corpus as corpus_mod, decoder, pipeline, quantizer, scorer


def _command(sub, name, func, help_text, data_dir=True):
    """Subcommand ``name`` running ``func``, with the flags every command takes."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="JSON run config; defaults apply when omitted")
    p.add_argument("--seed", type=int, help="override the global seed")
    p.add_argument("--out", default="run", help="run directory (default: run)")
    if data_dir:
        p.add_argument("--data-dir", help="directory of the input artifacts (default: --out)")
    p.set_defaults(func=func)
    return p


def _resolve_config(args) -> pipeline.RunConfig:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _with_flags(section, args, *names):
    """``section`` with each field in ``names`` replaced by the flag of that name.

    Override flags default to ``argparse.SUPPRESS``, so a flag that was not
    given leaves no attribute and its field keeps the config value.
    """
    return dataclasses.replace(section, **{n: getattr(args, n) for n in names if hasattr(args, n)})


def _data_dir(args):
    return args.data_dir if getattr(args, "data_dir", None) else args.out


def _load_corpus_and_log(data_dir, metrics=()):
    """items.jsonl and interactions.jsonl, whose events must name corpus items
    and whose requests must each carry the reward ``metrics``."""
    items_path = os.path.join(data_dir, "items.jsonl")
    log_path = os.path.join(data_dir, "interactions.jsonl")
    corp = corpus_mod.load_items(items_path)
    log = corpus_mod.load_interactions(log_path)
    by_id = corp.by_id()
    for r in log:
        bad = [f"item_id {e['item_id']} is not in {items_path}"
               for e in r.events if e["item_id"] not in by_id]
        bad += [f"missing reward metric {m!r}" for m in metrics if m not in r.reward_metrics]
        if bad:
            raise corpus_mod.CorpusFormatError(f"{log_path}: request {r.request_id!r}: {bad[0]}")
    return corp, log


def _training_inputs(cfg, data_dir, metrics=()):
    """Corpus, log, space, paths and training split of ``data_dir``; space.json must
    be the space that ``cfg`` and items.jsonl give, since it sizes the model."""
    corp, log = _load_corpus_and_log(data_dir, metrics)
    space_path = os.path.join(data_dir, "space.json")
    space, expected = pipeline.load_space(space_path), pipeline.build_space(cfg, corp)
    for f in dataclasses.fields(space):
        got, want = getattr(space, f.name), getattr(expected, f.name)
        if got != want:
            raise corpus_mod.CorpusFormatError(
                f"{space_path}: {f.name} {got!r:.80} is not the {want!r:.80} "
                f"that the config and items.jsonl give")
    paths = pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"), space)
    train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
    return corp, log, space, paths, train_set


@contextlib.contextmanager
def _naming(path):
    """Prefix ``path`` to a ValueError raised inside: the stage found records
    of that file that do not fit the other, already checked, inputs."""
    try:
        yield
    except ValueError as exc:
        raise corpus_mod.CorpusFormatError(f"{path}: {exc}") from exc


def _cmd_gen_data(args):
    cfg = _resolve_config(args)
    corp, log = pipeline.gen_data(cfg, args.out)
    print(f"wrote {len(corp)} items and {len(log)} requests to {args.out}")
    return 0


def _cmd_quantize(args):
    cfg = _resolve_config(args)
    if hasattr(args, "tau"):
        args.tau = None if args.tau in ("inf", "none") else float(args.tau)
    cfg = dataclasses.replace(
        cfg, quantizer=_with_flags(cfg.quantizer, args, "tau", "method", "strict"))
    items_path = os.path.join(_data_dir(args), "items.jsonl")
    corp = corpus_mod.load_items(items_path)
    with _naming(items_path):
        result = pipeline.run_quantizer(cfg, corp, args.out)
    loads = [lr.loads.max() for lr in result.layer_results]
    print(f"quantized {len(corp)} items; max layer loads {['%.1f' % v for v in loads]}; "
          f"{len(result.violations)} violation(s)")
    return 0


def _cmd_analyze(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp = corpus_mod.load_items(os.path.join(data_dir, "items.jsonl"))
    sids = quantizer.load_sids(os.path.join(data_dir, "sids.jsonl"))
    with _naming(os.path.join(data_dir, "sids.jsonl")):
        pipeline.analyze(cfg, corp, sids, args.out)
    print(f"wrote {os.path.join(args.out, 'analysis.json')}")
    return 0


def _cmd_build_seqs(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp = corpus_mod.load_items(os.path.join(data_dir, "items.jsonl"))
    sids = quantizer.load_sids(os.path.join(data_dir, "sids.jsonl"))
    with _naming(os.path.join(data_dir, "sids.jsonl")):
        space, paths = pipeline.build_sequences(cfg, corp, sids, args.out)
    print(f"wrote {len(paths)} sequences over {space.n_steps} steps")
    return 0


def _cmd_train(args):
    cfg = _resolve_config(args)
    corp, _, space, _, train_set = _training_inputs(cfg, _data_dir(args))
    params = pipeline.init_model(cfg, corp, space)
    params, trace = pipeline.train_model(cfg, params, train_set)
    scorer.save_checkpoint(params, os.path.join(args.out, "checkpoint.json"),
                           meta=pipeline.artifact_meta(cfg))
    print(f"trained on {len(train_set)} samples; "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}")
    return 0


def _cmd_align(args):
    cfg = _resolve_config(args)
    cfg = dataclasses.replace(cfg, align=_with_flags(
        cfg.align, args, "lambda_rft", "lambda_dpo", "beta", "c_clip", "pairs_per_request",
        "dpo_target"))
    data_dir = _data_dir(args)
    _, log, space, paths, train_set = _training_inputs(cfg, data_dir, cfg.align.reward_weights)
    params = scorer.load_checkpoint(os.path.join(data_dir, "checkpoint.json"))
    params, trace = pipeline.align_model(cfg, params, train_set, log, paths, space)
    scorer.save_checkpoint(params, os.path.join(args.out, "aligned_checkpoint.json"),
                           meta=pipeline.artifact_meta(cfg))
    print(f"aligned over {len(trace)} batches; final joint loss {trace[-1]:.4f}"
          if trace else "aligned (no batches)")
    return 0


def _model_and_paths(data_dir):
    """The aligned checkpoint, else the trained one, and the sequences that fit its space."""
    aligned = os.path.join(data_dir, "aligned_checkpoint.json")
    params = scorer.load_checkpoint(
        aligned if os.path.exists(aligned) else os.path.join(data_dir, "checkpoint.json"))
    return params, pipeline.load_sequences(os.path.join(data_dir, "sequences.jsonl"),
                                           params.space)


def _cmd_decode(args):
    cfg = _resolve_config(args)
    if hasattr(args, "task"):
        args.objective, _, args.scene = args.task.partition(":")
    cfg = dataclasses.replace(cfg, decode=_with_flags(
        cfg.decode, args, "beam_width", "top_k", "objective", "scene"))
    params, paths = _model_and_paths(_data_dir(args))
    candidates = pipeline.decode(cfg, params, decoder.build_trie(paths), args.out)
    print(f"wrote {len(candidates)} candidates to {os.path.join(args.out, 'candidates.jsonl')}")
    return 0


def _cmd_eval(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    corp, log = _load_corpus_and_log(data_dir)
    params, paths = _model_and_paths(data_dir)
    _, eval_set = pipeline.assemble_samples(cfg, corp, log, params.space, paths)
    pipeline.require_eval_set(cfg, log, eval_set)
    report = pipeline.evaluate(cfg, params, decoder.build_trie(paths), eval_set, args.out)
    print(f"token HR@3 mean {report.token_hr3_mean:.3f}; "
          f"HR@{max(cfg.eval.ks)} {report.hr_at[max(cfg.eval.ks)]:.3f}")
    return 0


def _parse_chains(text) -> list:
    """``--chains``: a JSON list of lists of attribute names."""
    with contextlib.suppress(ValueError):
        chains = json.loads(text)
        if isinstance(chains, list) and all(isinstance(c, list) and all(
                f in corpus_mod.ATTR_FIELDS for f in c) for c in chains):
            return [tuple(c) for c in chains]
    raise ValueError(f"--chains must be a JSON list of lists of attribute names "
                     f"{list(corpus_mod.ATTR_FIELDS)}, got {text!r}")


def _cmd_ablate(args):
    cfg = _resolve_config(args)
    data_dir = _data_dir(args)
    chains = _parse_chains(args.chains) if args.chains else [(), ("l2", "l3")]
    corp, log = _load_corpus_and_log(data_dir)
    methods = args.methods.split(",") if args.methods else ["capacity", "baseline"]
    reports = pipeline.ablation_run(cfg, corp, log, chains, methods)
    corpus_mod.write_json(os.path.join(args.out, "ablation.json"),
                          {name: r.as_dict() for name, r in reports.items()})
    for name, r in reports.items():
        print(f"{name}: token HR@3 mean {r.token_hr3_mean:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidforge",
        description="capacity-balanced semantic IDs with attribute-prefixed decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "gen-data", _cmd_gen_data, "generate items.jsonl and interactions.jsonl",
             data_dir=False)

    p = _command(sub, "quantize", _cmd_quantize, "fit codebooks and item codes")
    p.add_argument("--tau", default=argparse.SUPPRESS,
                   help="capacity tolerance; 'inf' disables the cap")
    p.add_argument("--method", choices=["capacity", "baseline"], default=argparse.SUPPRESS)
    p.add_argument("--strict-capacity", dest="strict", action="store_true",
                   default=argparse.SUPPRESS, help="fail instead of recording capacity violations")

    _command(sub, "analyze", _cmd_analyze, "exposure concentration and entropy report")
    _command(sub, "build-seqs", _cmd_build_seqs, "attribute+SID token paths per item")
    _command(sub, "train", _cmd_train, "next-token training of the scorer")

    p = _command(sub, "align", _cmd_align, "advantage-reweighted + preference-pair tuning")
    p.add_argument("--lambda-rft", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lambda-dpo", type=float, default=argparse.SUPPRESS)
    p.add_argument("--beta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c-clip", type=float, default=argparse.SUPPRESS)
    p.add_argument("--pairs-per-request", type=int, default=argparse.SUPPRESS)
    p.add_argument("--dpo-target", choices=["last-sid", "all"], default=argparse.SUPPRESS)

    p = _command(sub, "decode", _cmd_decode, "trie-constrained beam search")
    p.add_argument("--beam-width", type=int, default=argparse.SUPPRESS)
    p.add_argument("--top-k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--task", default=argparse.SUPPRESS,
                   help="objective:scene, e.g. click:main_feed")

    _command(sub, "eval", _cmd_eval, "hit-ratio report on the holdout split")

    p = _command(sub, "ablate", _cmd_ablate, "attribute-chain x quantizer grid")
    p.add_argument("--chains", help='JSON list of chains, e.g. [[],["l2","l3"]]')
    p.add_argument("--methods", help="comma-separated: capacity,baseline")
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
