"""Exposure-balanced residual quantization.

Hierarchical codebooks are fit layer by layer.  Each layer runs Lloyd
iterations whose nearest-centroid assignment step is followed by a repair
pass: clusters whose total exposure load exceeds ``tau`` times the mean
load per cluster evict their worst-fitting members into the nearest
under-capacity cluster, so no codebook entry monopolizes traffic.  With
``tau=None`` (or inf) the cap is infinite, the repair pass moves nothing
and the procedure reduces to plain residual K-means.

Determinism: assignment ties break toward the lowest cluster index, the
repair pass is sequential by definition (one member at a time against the
current loads), and items are processed in item_id order, so codes are
invariant under permutation of the input corpus for a fixed seed
(single-threaded).  The repair pass finds targets for a run of members in
one batched step and still makes exactly the sequential moves: while a
cluster drains, every other cluster only gains load, so the set of
clusters a member fits into only shrinks, and a target found earlier that
still fits is still the nearest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import expect, read_records, write_json, write_jsonl


class CapacityError(ValueError):
    """Strict-mode capacity repair failed; the message names the culprit."""


@dataclass
class CapacityViolation:
    layer: int
    cluster: int
    reason: str  # "overweight_item" | "no_feasible_target" | "residual_overload"
    item_index: int | None = None
    excess: float = 0.0


@dataclass(eq=False)
class Codebook:
    layers: list  # L arrays of shape (K, d_emb)
    K: int
    L: int
    tau: float | None  # None = unbounded
    cap: float | None  # the load cap the repair pass enforced; None = unbounded


@dataclass(frozen=True, slots=True)
class SemanticId:
    item_id: int
    codes: tuple


@dataclass
class LayerResult:
    assignments: np.ndarray  # (N,) int
    centroids: np.ndarray  # (K, d)
    loads: np.ndarray  # (K,) exposure load per cluster
    objective: float  # mean squared residual
    n_iter: int
    violations: list = field(default_factory=list)


@dataclass
class RQResult:
    sids: list  # of SemanticId, in item_id order
    codebook: Codebook
    layer_results: list

    @property
    def violations(self):
        return [v for lr in self.layer_results for v in lr.violations]

    def codes_matrix(self) -> np.ndarray:
        return np.array([s.codes for s in self.sids], dtype=np.int64)


def kmeanspp_init(points: np.ndarray, k: int, seed) -> np.ndarray:
    """Standard D^2-sampling initialization over unweighted points."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"need at least {k} points for {k} centroids, got {n}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = pts[idx]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # every point coincides with a chosen centroid
            idx = int(rng.integers(n))
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _squared_distances(p2, twice_points, centroids, out):
    """(N, K) squared Euclidean distances into ``out``; clipped at 0 for fp safety.

    ``p2`` is the (N, 1) column of squared point norms and ``twice_points``
    is ``2.0 * points``; a Lloyd run computes both once.  The result is
    ``p2 - (2.0 * points) @ centroids.T + c2``, evaluated in that order.
    """
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    np.matmul(twice_points, centroids.T, out=out)
    np.subtract(p2, out, out=out)
    np.add(out, c2, out=out)
    return np.maximum(out, 0.0, out=out)


def _repair_pass(d2, weights, z, loads, cap, pinned, strict, layer, violations):
    """Evict members of overloaded clusters into the nearest feasible cluster.

    Clusters are repaired in descending overload, members evicted in
    descending distance to their own centroid.  Targets must stay within
    cap after accepting the item, so a repaired cluster never re-overloads.
    A member with no feasible target is skipped while lighter members can
    still fix the cluster; only when the cluster stays overloaded do such
    members get force-placed (lenient) or raise (strict).

    The walk holds the loads as Python floats and finds targets in
    batches: one (members x K) pass gives the nearest feasible target of
    each of the fewest next members whose weights cover the excess.  While
    a cluster drains, every other cluster only gains load, so a member's
    feasible set only shrinks: a batched target that still fits is still
    the nearest one, and the walk re-batches from the first member whose
    target has filled up since.  The moves are those of the one member at
    a time definition, bit for bit.
    """
    overloaded = np.flatnonzero(loads > cap)
    order = overloaded[np.argsort(-(loads[overloaded] - cap), kind="stable")]
    load = loads.tolist()
    for k in order.tolist():
        if load[k] <= cap:
            continue
        members = np.flatnonzero(z == k)
        movable = members[~pinned[members]]
        # farthest from the centroid first
        movable = movable[np.argsort(-d2[movable, k], kind="stable")]
        w_mov = weights[movable]
        covered = np.cumsum(w_mov)
        mov, w_list = movable.tolist(), w_mov.tolist()
        deferred = []
        start = 0
        while start < len(mov) and load[k] > cap:
            # nearest feasible target (-1: none) of each of the fewest
            # further members whose weights cover the excess
            before = covered[start - 1] if start else 0.0
            stop = max(start + 1, int(np.searchsorted(covered, before + (load[k] - cap))) + 1)
            feasible = np.asarray(load) + w_mov[start:stop, None] <= cap
            targets = np.argmin(np.where(feasible, d2[movable[start:stop]], np.inf), axis=1)
            targets[~feasible.any(axis=1)] = -1
            for k2 in targets.tolist():
                i, wi = mov[start], w_list[start]
                if k2 >= 0 and load[k2] + wi > cap:
                    break  # the target filled up: re-target from here on against the loads now
                start += 1
                if k2 < 0:
                    deferred.append(i)
                    continue
                z[i] = k2
                load[k] -= wi
                load[k2] += wi
                if load[k] <= cap:
                    break
        if load[k] <= cap:
            continue
        if strict:
            raise CapacityError(
                f"layer {layer}: cluster {k} still overloaded after repair "
                f"(load {load[k]:.1f} > cap {cap:.1f}, "
                f"{len(deferred)} member(s) found no feasible target)"
            )
        for i in deferred:
            if load[k] <= cap:
                break
            wi = float(weights[i])
            k2 = int(np.argmin(load))
            z[i] = k2
            load[k] -= wi
            load[k2] += wi
            violations.append(
                CapacityViolation(
                    layer=layer,
                    cluster=k2,
                    reason="no_feasible_target",
                    item_index=i,
                    excess=load[k2] - cap,
                )
            )
        if load[k] > cap:
            violations.append(
                CapacityViolation(
                    layer=layer, cluster=k, reason="residual_overload",
                    excess=load[k] - cap,
                )
            )
    loads[:] = load


def _update_centroids(pts, z, centroids):
    """Move each non-empty cluster's centroid to the mean of its members.

    ``np.bincount`` adds each cluster's members in index order, as
    ``pts[members].mean(axis=0)`` does over two or more columns, so the
    means are the same bits.  Over one column that mean is a pairwise sum,
    so one-dimensional points take the per-cluster mean.  Empty clusters
    keep their centroids.
    """
    k, d = centroids.shape
    if d == 1:
        for kk in range(k):
            members = np.flatnonzero(z == kk)
            if members.size:
                centroids[kk] = pts[members].mean(axis=0)
        return
    counts = np.bincount(z, minlength=k)
    sums = np.bincount((z[:, None] * d + np.arange(d)).ravel(), weights=pts.ravel(),
                       minlength=k * d).reshape(k, d)
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, None]


def _reseed_empty(d2, weights, z, loads, pinned):
    """Re-seed empty clusters from the farthest member of the heaviest cluster."""
    k_total = loads.shape[0]
    counts = np.bincount(z, minlength=k_total)
    for k in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts >= 2)
        if donors.size == 0:
            break
        donor = int(donors[np.argmax(loads[donors])])
        members = np.flatnonzero(z == donor)
        members = members[~pinned[members]]
        if members.size == 0:
            continue
        i = int(members[np.argmax(d2[members, donor])])
        z[i] = k
        loads[donor] -= weights[i]
        loads[k] += weights[i]
        counts[donor] -= 1
        counts[k] += 1


def capacity_kmeans_layer(
    residuals,
    weights,
    k: int,
    tau: float | None,
    seed,
    max_iter: int = 50,
    eps_conv: float = 1e-6,
    strict: bool = False,
    layer: int = 0,
) -> LayerResult:
    """One capacity-repaired Lloyd run over residual vectors.

    The cap is ``tau`` times the mean load per cluster, infinite for
    ``tau=None`` (or inf); any other ``tau`` below 1, NaN included, raises
    before any clustering.  Convergence: relative change of the mean
    squared residual below ``eps_conv``.
    """
    pts = np.asarray(residuals, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = pts.shape[0]
    bad = np.flatnonzero(~((w > 0) & (w < math.inf)))  # NaN fails both
    if bad.size:
        raise ValueError(f"weights must be finite and > 0, got {w[bad[0]]} at index {bad[0]}")
    if tau is not None and not tau >= 1.0:
        raise ValueError(f"tau must be None or >= 1, got {tau}")

    cap = _cap(tau, w, k)

    violations = []
    pinned = w > cap
    heavy = np.flatnonzero(pinned)
    if heavy.size:
        if strict:
            raise CapacityError(
                f"layer {layer}: item index {int(heavy[0])} has weight "
                f"{w[heavy[0]]:.1f} > cap {cap:.1f}; infeasible in strict mode"
            )
        for i in heavy:
            violations.append(
                CapacityViolation(
                    layer=layer, cluster=-1, reason="overweight_item",
                    item_index=int(i), excess=float(w[i] - cap),
                )
            )

    centroids = kmeanspp_init(pts, k, seed)
    p2 = (pts * pts).sum(axis=1)[:, None]
    twice_pts = 2.0 * pts
    d2 = np.empty((n, k))
    prev_obj = math.inf
    z = np.zeros(n, dtype=np.int64)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        _squared_distances(p2, twice_pts, centroids, out=d2)
        z = np.argmin(d2, axis=1)  # ties -> lowest index
        loads = np.bincount(z, weights=w, minlength=k)
        _repair_pass(d2, w, z, loads, cap, pinned, strict, layer, violations)
        _reseed_empty(d2, w, z, loads, pinned)
        _update_centroids(pts, z, centroids)
        obj = float(((pts - centroids[z]) ** 2).sum(axis=1).mean())
        if math.isfinite(prev_obj) and abs(prev_obj - obj) <= eps_conv * max(obj, 1e-30):
            prev_obj = obj
            break
        prev_obj = obj
    loads = np.bincount(z, weights=w, minlength=k)
    return LayerResult(
        assignments=z,
        centroids=centroids,
        loads=loads,
        objective=prev_obj,
        n_iter=n_iter,
        violations=violations,
    )


def _cap(tau: float | None, w: np.ndarray, k: int) -> float:
    """The load cap, ``tau`` times the mean load per cluster; inf for ``tau=None``."""
    return math.inf if tau is None else float(tau) * (w.sum() / k)


def capacity_constrained_rq(
    corpus,
    n_layers: int,
    k: int,
    tau: float | None,
    seed,
    max_iter: int = 50,
    eps_conv: float = 1e-6,
    strict: bool = False,
) -> RQResult:
    """Layered residual quantization with per-layer capacity repair.

    Layer l clusters the residual left by layers < l; per-layer RNG seeds
    are derived as seed + layer so deeper runs share shallow layers.
    Row i of the codes is the corpus' item i, which is item_id i.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must be non-empty")
    emb = np.array([it.embedding for it in corpus.items])
    w = corpus.weights()
    # residual coordinates at most double per layer, so with every |value|
    # below the bound each layer's summed squared distances stay finite
    bound = math.sqrt(np.finfo(np.float64).max / max(emb.size, 1) / 4 ** (n_layers + 1))
    too_large = np.abs(emb).max(axis=1, initial=0.0) > bound
    if too_large.any():
        raise ValueError(f"item_id {int(too_large.argmax())}: embedding values "
                         f"above {bound:.3g} overflow the squared distances")

    residual = emb.copy()
    codes = np.empty((len(corpus), n_layers), dtype=np.int64)
    layers, results = [], []
    for l in range(n_layers):
        res = capacity_kmeans_layer(
            residual, w, k, tau, seed + l,
            max_iter=max_iter, eps_conv=eps_conv, strict=strict, layer=l,
        )
        codes[:, l] = res.assignments
        residual = residual - res.centroids[res.assignments]
        layers.append(res.centroids)
        results.append(res)

    tau_stored = None if (tau is None or math.isinf(tau)) else float(tau)
    cap = _cap(tau, w, k)
    codebook = Codebook(layers=layers, K=k, L=n_layers, tau=tau_stored,
                        cap=cap if cap < math.inf else None)
    sids = [SemanticId(i, tuple(row)) for i, row in enumerate(codes.tolist())]
    return RQResult(sids=sids, codebook=codebook, layer_results=results)


def rq_kmeans_baseline(corpus, n_layers, k, seed, max_iter=50, eps_conv=1e-6) -> RQResult:
    """Residual K-means: the capacity-repaired run with an infinite cap."""
    return capacity_constrained_rq(
        corpus, n_layers, k, tau=None, seed=seed, max_iter=max_iter, eps_conv=eps_conv
    )


# ----------------------------------------------------------------------
# persistence: single JSON document for codebooks, JSONL for codes
# ----------------------------------------------------------------------

def save_codebook(codebook: Codebook, path, meta: dict | None = None):
    write_json(path, {**vars(codebook), "layers": [layer.tolist() for layer in codebook.layers],
                      "meta": meta or {}})


def save_sids(sids, path, meta: dict | None = None):
    write_jsonl(path, ({"item_id": s.item_id, "sid": list(s.codes)} for s in sids), meta)


def _semantic_id(obj) -> SemanticId:
    return SemanticId(expect("integer", "item_id", obj["item_id"]),
                      tuple(expect("integer", "sid code", c) for c in obj["sid"]))


def load_sids(path) -> list:
    return read_records(path, "sid", {"item_id", "sid"}, _semantic_id, unique="item_id")
