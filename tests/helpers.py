"""Shared fixtures: tiny scorer instances, the finite-difference checker,
a sequential reference for the capacity-repaired quantizer layer, the
dict-of-tuples trie, beam search and scorer input rows that the array-backed
ones must match bit for bit, and test-only models and statistics."""

import base64
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from sidforge import decoder, quantizer, scorer, tokenizer
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
    return st.tuples(*(st.integers(0, v - 1) for v in space.step_vocab_sizes.tolist()))


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


def cluster_load(assignments, weights, n_clusters: int | None = None) -> np.ndarray:
    """Exposure load per cluster: V_k = sum of weights of members of k."""
    z = np.asarray(assignments, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if z.shape != w.shape:
        raise ValueError("assignments and weights must be aligned")
    k = n_clusters if n_clusters is not None else (int(z.max()) + 1 if z.size else 0)
    return np.bincount(z, weights=w, minlength=k)


def reconstruction_error(corpus, sids, codebook) -> float:
    """Total squared error between embeddings and their code reconstructions."""
    by_id = {it.item_id: it for it in corpus.items}
    total = 0.0
    for s in sids:
        recon = sum(codebook.layers[l][c] for l, c in enumerate(s.codes))
        total += float(((by_id[s.item_id].embedding - recon) ** 2).sum())
    return total


# ----------------------------------------------------------------------
# models and references for decoder.beam_search and scorer._input_rows
# ----------------------------------------------------------------------


class CountScorer:
    """Non-parametric smoothed conditional tables over observed paths.

    p(s_t | prefix) = (count(prefix + t) + k) / (count(prefix) + k * V_t).
    With k=0 the tables are exact on fully observed corpora; querying an
    unseen prefix with k=0 is an error (undefined conditional).
    """

    def __init__(self, sequences, vocab_sizes, smoothing: float = 0.0):
        if smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        self.vocab_sizes = tuple(vocab_sizes)
        self.smoothing = float(smoothing)
        self.prefix_counts = {}
        self.next_counts = {}
        for seq in sequences:
            seq = tuple(seq)
            if len(seq) != len(self.vocab_sizes):
                raise ValueError("sequence length does not match vocab_sizes")
            for t in range(len(seq)):
                prefix = seq[:t]
                self.prefix_counts[prefix] = self.prefix_counts.get(prefix, 0) + 1
                key = (prefix, seq[t])
                self.next_counts[key] = self.next_counts.get(key, 0) + 1

    def step_probs(self, prefix) -> np.ndarray:
        prefix = tuple(prefix)
        t = len(prefix)
        if t >= len(self.vocab_sizes):
            raise ValueError("prefix already complete")
        v = self.vocab_sizes[t]
        total = self.prefix_counts.get(prefix, 0)
        if total == 0 and self.smoothing == 0.0:
            raise ValueError(f"unseen prefix {prefix} with zero smoothing")
        counts = np.full(v, self.smoothing)
        for tok in range(v):
            counts[tok] += self.next_counts.get((prefix, tok), 0)
        return counts / (total + self.smoothing * v)

    def step_logprobs(self, prefix) -> np.ndarray:
        """log p over step len(prefix)+1; a (B, n) array gives one row per prefix."""
        if np.ndim(prefix) == 2:
            return np.stack([self.step_logprobs(p) for p in np.asarray(prefix).tolist()])
        with np.errstate(divide="ignore"):
            return np.log(self.step_probs(prefix))

    def logprob(self, seq) -> float:
        seq = tuple(seq)
        total = 0.0
        for t in range(len(seq)):
            total += float(self.step_logprobs(seq[:t])[seq[t]])
        return total


class ReferenceTrie:
    """The prefix table as two dicts: every prefix, the empty one included,
    to the sorted tuple of its next tokens, and every full path, in
    lexicographic order, to the sorted tuple of its item ids."""

    def __init__(self, n_steps: int, children: dict, items: dict):
        self.n_steps = n_steps
        self.n_paths = len(items)
        self._children = children
        self._items = items

    def children(self, prefix) -> tuple:
        return self._children.get(tuple(prefix), ())

    def items_at(self, path) -> tuple:
        try:
            return self._items[tuple(path)]
        except KeyError:
            raise decoder.DecoderError(f"path {tuple(path)} not in trie") from None

    def paths(self) -> list:
        return list(self._items)


def reference_build_trie(sequences_by_item: dict) -> ReferenceTrie:
    """``decoder.build_trie`` as one pass over the sorted (path, item id) pairs."""
    n_steps = len(next(iter(sequences_by_item.values())))
    # paths sharing a prefix are adjacent in sorted order and list its next
    # tokens in ascending order, so a token is new unless it repeats the last
    children, items = {}, {}
    for path, item_id in sorted((tuple(map(int, p)), i) for i, p in sequences_by_item.items()):
        for t in range(n_steps):
            nxt = children.setdefault(path[:t], [])
            if not nxt or nxt[-1] != path[t]:
                nxt.append(path[t])
        items.setdefault(path, []).append(item_id)
    return ReferenceTrie(n_steps, {p: tuple(toks) for p, toks in children.items()},
                         {p: tuple(ids) for p, ids in items.items()})


def reference_beam_search(model, trie: ReferenceTrie, beam_width: int, top_k: int) -> list:
    """``decoder.beam_search`` over tuple paths, one ``children`` lookup per beam."""
    # live beams in lexicographic path order, so that expanding them in
    # order lists the expanded paths in lexicographic order too
    paths, scores = [()], np.zeros(1)
    for step in range(1, trie.n_steps + 1):
        step_lp = model.step_logprobs(np.array(paths, dtype=np.int64).reshape(len(paths), step - 1))
        children = [trie.children(path) for path in paths]
        parent = np.repeat(np.arange(len(paths)), [len(c) for c in children])
        toks = np.fromiter(itertools.chain.from_iterable(children), dtype=np.int64,
                           count=len(parent))
        expanded = scores[parent] + step_lp[parent, toks]
        # a stable sort keeps lexicographic order among equal log-probs
        keep = np.sort(np.argsort(-expanded, kind="stable")[:beam_width])
        paths = [paths[p] + (t,) for p, t in zip(parent[keep].tolist(), toks[keep].tolist())]
        scores = expanded[keep]

    ranked = np.argsort(-scores, kind="stable")[:top_k].tolist()
    return [decoder.Candidate(path=paths[i], logprob=float(scores[i]),
                              item_ids=trie.items_at(paths[i]))
            for i in ranked]


def candidate_bits(candidates) -> list:
    """(path, log-prob as float.hex, item ids) of each candidate, in order."""
    return [(c.path, c.logprob.hex(), c.item_ids) for c in candidates]


def reference_content_summary_rows(path_globals, spec) -> np.ndarray:
    """``tokenizer.content_summary_rows`` over the (B, n_steps) array of a
    path's global tokens, -1 where a step is not decoded: every pair is
    hashed, then a pair with an undecoded position gets the NULL row."""
    pos = np.array(spec.pairs, dtype=np.int64).reshape(-1, 2) - 1
    sizes = np.array(spec.pair_sizes, dtype=np.int64)[:, None]
    x, y = path_globals[:, pos[:, 0]], path_globals[:, pos[:, 1]]
    rows = tokenizer._hash_family(spec, x, y) % sizes
    rows[np.minimum(x, y) < 0] = spec.null_row
    return rows.reshape(len(path_globals), -1)


def hash_rows(spec, pair_index: int, x: int, y: int):
    """Row indices of the m_hashes lookups for global token indices (x, y)."""
    return (tokenizer._hash_family(spec, x, y) % spec.pair_sizes[pair_index]).tolist()


def combo_digits(joint) -> np.ndarray:
    """(F, n_features) mixed-radix decomposition of each combination index of
    the ``analysis.DiscreteJoint`` ``joint``."""
    return np.indices(joint.feature_sizes).reshape(len(joint.feature_sizes), -1).T


def reference_input_rows(params, prefixes, q, h_agg):
    """``scorer._input_rows`` on a zeroed x, with the prefix -1 padded to the
    full path for the content summary."""
    space, cfg, tensors = params.space, params.config, params.tensors
    d, w = cfg.d_model, cfg.prefix_window
    b, n = prefixes.shape
    x = np.zeros((b, params.x_dim))  # window slots beyond the prefix stay zero
    x[:, :d] = q
    for slot in range(min(w, n)):  # slot 0 holds the last prefix token, of step n
        emb = tensors[f"emb_step_{n - slot}"]
        x[:, (1 + slot) * d:(2 + slot) * d] = emb[prefixes[:, n - 1 - slot]]
    path_globals = np.full((b, space.n_steps), -1, dtype=np.int64)
    path_globals[:, :n] = prefixes + space.step_offsets[:n]
    rows = reference_content_summary_rows(path_globals, params.hash_spec)
    c_start = (1 + w) * d
    x[:, c_start:c_start + params.hash_spec.output_dim] = tensors["emb_hash"][rows].reshape(b, -1)
    x[:, -d:] = h_agg
    return x, rows
