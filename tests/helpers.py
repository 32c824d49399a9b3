"""Shared fixtures: tiny scorer instances and the finite-difference checker."""

import numpy as np
from hypothesis import strategies as st

from sidforge import scorer, tokenizer


def tiny_space(rng, max_vocab=4):
    """Random small sequence space: 0-2 attribute steps, 2-3 SID layers."""
    m = int(rng.integers(0, 3))
    fields = ("l2", "l3")[:m] if m else ()
    attr_vocabs = {
        f: {f"{f}_{i}": i for i in range(int(rng.integers(2, max_vocab + 1)))}
        for f in ("l2", "l3")
    }
    sid_sizes = tuple(int(rng.integers(2, max_vocab + 1))
                      for _ in range(int(rng.integers(2, 4))))
    return tokenizer.SequenceSpace(attr_chain=fields, attr_vocabs=attr_vocabs,
                                   sid_sizes=sid_sizes)


def tiny_params(rng, space=None, d_model=4, d_hash=3, n_behavior=6):
    if space is None:
        space = tiny_space(rng)
    spec = tokenizer.hash_spec_for_space(space, d_hash=d_hash)
    cfg = scorer.ScorerConfig(d_model=d_model, prefix_window=4,
                              seed=int(rng.integers(0, 2**31)))
    return scorer.init_scorer(space, spec, n_behavior, cfg)


@st.composite
def tiny_contexts(draw):
    """A random tiny scorer with one (behavior, bos) context for it.

    The space has 0-2 attribute steps and 1-3 SID layers with vocabularies
    of 1-4 tokens; the prefix window may be shorter than the path.
    """
    m = draw(st.integers(0, 2))
    vocab = st.integers(1, 4)
    attr_vocabs = {f: {f"{f}_{i}": i for i in range(draw(vocab))} for f in ("l2", "l3")}
    sid_sizes = tuple(draw(st.lists(vocab, min_size=1, max_size=3)))
    space = tokenizer.SequenceSpace(attr_chain=("l2", "l3")[:m], attr_vocabs=attr_vocabs,
                                    sid_sizes=sid_sizes)
    spec = tokenizer.hash_spec_for_space(space, d_hash=draw(st.integers(1, 3)),
                                         m_hashes=draw(st.integers(1, 3)))
    cfg = scorer.ScorerConfig(d_model=draw(st.sampled_from((2, 4))),
                              prefix_window=draw(st.integers(1, 4)),
                              seed=draw(st.integers(0, 2**31 - 1)))
    n_behavior = draw(st.integers(1, 5))
    params = scorer.init_scorer(space, spec, n_behavior, cfg)
    behavior = tuple(draw(st.lists(st.integers(0, n_behavior - 1), max_size=4)))
    bos = draw(st.integers(0, space.n_task_tokens - 1))
    return params, behavior, bos


def token_paths(space):
    """Hypothesis strategy: full token paths of ``space``."""
    return st.tuples(*(st.integers(0, v - 1) for v in space.step_vocab_sizes))


@st.composite
def teacher_forced_batches(draw):
    """A tiny scorer from ``tiny_contexts`` and a batch of 3-7 samples for it.

    Behaviors mix lengths 0-5, one of them empty, and the first sample
    appears twice, so a batched forward pads and masks, and its backward
    scatter-adds repeated embedding and hash rows.  Small vocabularies
    repeat tokens across the other samples too.
    """
    params, behavior, bos = draw(tiny_contexts())
    space = params.space
    sample = st.builds(
        scorer.Sample,
        behavior=st.lists(st.integers(0, params.n_behavior_tokens - 1), max_size=5).map(tuple),
        bos=st.integers(0, space.n_task_tokens - 1),
        tokens=token_paths(space),
        alpha=st.floats(0.25, 4.0),
    )
    samples = [scorer.Sample(behavior, bos, draw(token_paths(space))),
               scorer.Sample((), bos, draw(token_paths(space)))]
    samples += draw(st.lists(sample, max_size=4))
    samples.append(samples[0])
    order = draw(st.permutations(range(len(samples))))
    return params, [samples[i] for i in order]


def random_sample(rng, params, alpha=None):
    space = params.space
    behavior = tuple(int(t) for t in
                     rng.integers(0, params.n_behavior_tokens,
                                  size=int(rng.integers(0, 4))))
    tokens = tuple(int(rng.integers(0, space.step_vocab_size(t)))
                   for t in range(1, space.n_steps + 1))
    bos = int(rng.integers(0, space.n_task_tokens))
    a = float(alpha) if alpha is not None else float(rng.uniform(0.5, 2.0))
    return scorer.Sample(behavior=behavior, bos=bos, tokens=tokens, alpha=a)


def finite_difference_grads(loss_fn, params, names=None, h=1e-5):
    """Central differences of a scalar loss over every entry of each tensor."""
    out = {}
    for name in names or params.trainable_names():
        arr = params.tensors[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            lp = loss_fn(params)
            arr[idx] = old - h
            lm = loss_fn(params)
            arr[idx] = old
            fd[idx] = (lp - lm) / (2 * h)
            it.iternext()
        out[name] = fd
    return out


def max_grad_rel_error(analytic, fd, floor=1e-6):
    """Worst per-entry relative error across tensors.

    The denominator floor keeps entries whose true gradient lies below
    the fd noise floor (|grad| << loss * eps / h) from dominating.
    """
    worst = 0.0
    for name, fd_arr in fd.items():
        a = analytic[name]
        denom = np.maximum.reduce([np.abs(a), np.abs(fd_arr), np.full_like(fd_arr, floor)])
        worst = max(worst, float((np.abs(a - fd_arr) / denom).max()))
    return worst
