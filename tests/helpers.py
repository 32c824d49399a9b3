"""Shared fixtures: tiny scorer instances, the finite-difference checker and
a sequential reference for the capacity-repaired quantizer layer."""

import base64
import math

import numpy as np
from hypothesis import strategies as st

from sidforge import quantizer, scorer, tokenizer
from sidforge.corpus import zipf_integer_weights


def f8le(arr):
    """``arr`` as checkpoint.json stores a tensor."""
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "f8le": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def stored(doc, name):
    """The array that checkpoint document ``doc`` stores as tensor ``name``."""
    tensor = doc["tensors"][name]
    return np.frombuffer(base64.b64decode(tensor["f8le"]), dtype="<f8").reshape(tensor["shape"])


def to_nested_lists(doc):
    """Turn checkpoint document ``doc`` into the format that earlier versions
    wrote: each tensor a nested list, and no format field."""
    doc["tensors"] = {name: stored(doc, name).tolist() for name in doc["tensors"]}
    del doc["format"]


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


# ----------------------------------------------------------------------
# sequential reference for quantizer.capacity_kmeans_layer
# ----------------------------------------------------------------------


@st.composite
def capacity_inputs(draw, max_items=300):
    """Points, Zipf integer weights, K, tau and strict mode for the quantizer.

    K is 1-8 and there are K to ``max_items`` points of dimension 1-4,
    either Gaussian or on a small integer grid (exact distance ties and
    coincident points).  tau is unbounded (None or inf) or in [1, 2]; up to
    two items are reweighted to the total weight so far, about half of the
    new total, which makes such an item overweight when K > 2 tau.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, max_items))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        points = rng.normal(size=(n, d))
    else:
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    weights = zipf_integer_weights(rng, n, draw(st.floats(0.5, 2.0)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        weights[i] = weights.sum()
    tau = draw(st.none() | st.just(math.inf) | st.floats(1.0, 2.0))
    return points, weights, k, tau, draw(st.booleans())


def reference_squared_distances(points, centroids):
    """(N, K) squared Euclidean distances; clipped at 0 for fp safety."""
    p2 = (points * points).sum(axis=1)[:, None]
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    d2 = p2 - 2.0 * points @ centroids.T + c2
    return np.maximum(d2, 0.0)


def reference_repair_pass(d2, weights, z, loads, cap, pinned, strict, layer, violations):
    """The repair pass one member at a time, each against the current loads."""
    overloaded = np.flatnonzero(loads > cap)
    order = overloaded[np.argsort(-(loads[overloaded] - cap), kind="stable")]
    for k in order:
        k = int(k)
        if loads[k] <= cap:
            continue
        members = np.flatnonzero(z == k)
        movable = members[~pinned[members]]
        # farthest from the centroid first
        movable = movable[np.argsort(-d2[movable, k], kind="stable")]
        deferred = []
        for i in movable:
            if loads[k] <= cap:
                break
            i = int(i)
            wi = weights[i]
            feasible = loads + wi <= cap
            if feasible.any():
                dist_row = np.where(feasible, d2[i], np.inf)
                k2 = int(np.argmin(dist_row))
                z[i] = k2
                loads[k] -= wi
                loads[k2] += wi
            else:
                deferred.append(i)
        if loads[k] <= cap:
            continue
        if strict:
            raise quantizer.CapacityError(
                f"layer {layer}: cluster {k} still overloaded after repair "
                f"(load {loads[k]:.1f} > cap {cap:.1f}, "
                f"{len(deferred)} member(s) found no feasible target)"
            )
        for i in deferred:
            if loads[k] <= cap:
                break
            wi = weights[i]
            k2 = int(np.argmin(loads))
            z[i] = k2
            loads[k] -= wi
            loads[k2] += wi
            violations.append(
                quantizer.CapacityViolation(
                    layer=layer,
                    cluster=k2,
                    reason="no_feasible_target",
                    item_index=i,
                    excess=float(loads[k2] - cap),
                )
            )
        if loads[k] > cap:
            violations.append(
                quantizer.CapacityViolation(
                    layer=layer, cluster=k, reason="residual_overload",
                    excess=float(loads[k] - cap),
                )
            )


def reference_capacity_kmeans_layer(residuals, weights, k, tau, seed, max_iter=50,
                                    eps_conv=1e-6, strict=False, layer=0):
    """``quantizer.capacity_kmeans_layer`` by its sequential definition.

    Distances are recomputed in full each iteration, the repair pass
    moves one member at a time against the current loads, and each
    centroid is the mean of its members.
    """
    pts = np.asarray(residuals, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = pts.shape[0]
    if np.any(w <= 0):
        raise ValueError("all weights must be positive")

    unbounded = tau is None or math.isinf(tau)
    c_cap = w.sum() / k
    cap = math.inf if unbounded else float(tau) * c_cap

    violations = []
    pinned = np.zeros(n, dtype=bool)
    if not unbounded:
        heavy = np.flatnonzero(w > cap)
        if heavy.size:
            if strict:
                raise quantizer.CapacityError(
                    f"layer {layer}: item index {int(heavy[0])} has weight "
                    f"{w[heavy[0]]:.1f} > cap {cap:.1f}; infeasible in strict mode"
                )
            pinned[heavy] = True
            for i in heavy:
                violations.append(
                    quantizer.CapacityViolation(
                        layer=layer, cluster=-1, reason="overweight_item",
                        item_index=int(i), excess=float(w[i] - cap),
                    )
                )

    centroids = quantizer.kmeanspp_init(pts, k, seed)
    prev_obj = math.inf
    z = np.zeros(n, dtype=np.int64)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = reference_squared_distances(pts, centroids)
        z = np.argmin(d2, axis=1)  # ties -> lowest index
        loads = np.bincount(z, weights=w, minlength=k)
        if not unbounded:
            reference_repair_pass(d2, w, z, loads, cap, pinned, strict, layer, violations)
        quantizer._reseed_empty(d2, w, z, loads, pinned)
        for kk in range(k):
            members = np.flatnonzero(z == kk)
            if members.size:
                centroids[kk] = pts[members].mean(axis=0)
        obj = float(((pts - centroids[z]) ** 2).sum(axis=1).mean())
        if math.isfinite(prev_obj) and abs(prev_obj - obj) <= eps_conv * max(obj, 1e-30):
            prev_obj = obj
            break
        prev_obj = obj
    loads = np.bincount(z, weights=w, minlength=k)
    return quantizer.LayerResult(
        assignments=z,
        centroids=centroids,
        loads=loads,
        objective=prev_obj,
        n_iter=n_iter,
        violations=violations,
    )
