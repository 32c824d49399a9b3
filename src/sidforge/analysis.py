"""Exposure concentration, attribute-conditional entropy, and rank oracles.

Entropy estimates are plug-in and exposure-weighted: every item counts
with its impression weight, not once.  When the weights form an exact
probability table the estimates are exact, which is what the inequality
tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ZeroNormalizerError(ValueError):
    """Bayes inversion hit a zero-probability normalizer."""


# ----------------------------------------------------------------------
# exposure concentration (Matthew effect)
# ----------------------------------------------------------------------

def _group_shares(codes, weights, depth: int) -> np.ndarray:
    """Weight shares of the items' depth-prefix code groups, heaviest first."""
    _, inverse = np.unique(codes[:, :depth], axis=0, return_inverse=True)
    group_w = np.bincount(inverse, weights=np.asarray(weights, dtype=np.float64))
    return np.sort(group_w)[::-1] / group_w.sum()


def exposure_concentration(codes, weights, depth: int, top_frac: float) -> float:
    """Weight share of the heaviest ceil(top_frac * G) of the G groups of
    items that share their (N, L) code array's depth-prefix."""
    codes = np.asarray(codes)
    if codes.shape[0] == 0:
        raise ValueError("empty corpus")
    if not 1 <= depth <= codes.shape[1]:
        raise ValueError(f"depth must lie in [1, {codes.shape[1]}]")
    if not 0.0 < top_frac <= 1.0:
        raise ValueError("top_frac must lie in (0, 1]")
    shares = _group_shares(codes, weights, depth)
    return float(shares[:math.ceil(top_frac * shares.shape[0])].sum())


def exposure_report(codes, weights, fracs=(0.01, 0.05, 0.10)) -> dict:
    """Per depth (a string key) the sorted group shares and, per headline
    fraction (a string key), the cumulative share of its heaviest groups."""
    codes = np.asarray(codes)
    depths = {}
    for depth in range(1, codes.shape[1] + 1):
        shares = _group_shares(codes, weights, depth)
        depths[str(depth)] = {
            "shares": shares.tolist(),
            "top": {str(f): float(shares[: math.ceil(f * shares.shape[0])].sum())
                    for f in fracs},
        }
    return depths


# ----------------------------------------------------------------------
# conditional entropy / mutual information (plug-in, exposure-weighted)
# ----------------------------------------------------------------------

def conditional_entropy(targets, weights, conditions=None) -> float:
    """Plug-in H(target | conditions) in bits over exposure-weighted counts.

    ``conditions`` is an (N, c) integer array; None or zero columns gives
    the marginal entropy H(target).  0 log 0 terms never arise because
    only observed cells enter the sums.
    """
    t = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if t.shape[0] == 0:
        raise ValueError("no sequences")
    conditions = np.zeros((t.shape[0], 0)) if conditions is None else np.asarray(conditions)
    _, cond_id = np.unique(conditions.reshape(t.shape[0], -1), axis=0, return_inverse=True)
    _, t_id = np.unique(t, return_inverse=True)
    n_t = int(t_id.max()) + 1
    pair = cond_id * n_t + t_id
    w_pair = np.bincount(pair, weights=w)
    w_cond = np.bincount(cond_id, weights=w)
    total = w.sum()
    mask = w_pair > 0
    wp = w_pair[mask]
    wc = w_cond[np.flatnonzero(mask) // n_t]
    return float(np.sum((wp / total) * np.log2(wc / wp)))


def _layer_entropies(codes, attrs, weights, layer: int):
    """H(s_l | s_<l) and H(s_l | attrs, s_<l) in bits."""
    prefix = codes[:, :layer]
    attrs = np.asarray(attrs)
    if attrs.ndim == 1:
        attrs = attrs[:, None]
    return (conditional_entropy(codes[:, layer], weights, prefix),
            conditional_entropy(codes[:, layer], weights, np.concatenate([attrs, prefix], axis=1)))


def entropy_reduction(codes, attrs, weights, layer: int) -> float:
    """H(s_l | s_<l) minus H(s_l | attrs, s_<l), in bits.

    Equals the plug-in conditional mutual information between the
    attributes and the layer-l code given the code prefix.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not 0 <= layer < codes.shape[1]:
        raise ValueError("layer out of range")
    without, with_attrs = _layer_entropies(codes, attrs, weights, layer)
    return without - with_attrs


def entropy_report(codes, attrs, weights) -> list:
    """One row {layer, h_prefix, h_prefix_attrs, delta} per code layer."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = []
    for l in range(codes.shape[1]):
        h0, h1 = _layer_entropies(codes, attrs, weights, l)
        rows.append({"layer": l, "h_prefix": h0, "h_prefix_attrs": h1, "delta": h0 - h1})
    return rows


# ----------------------------------------------------------------------
# cascading decoding error
# ----------------------------------------------------------------------

def cascading_error(per_layer_error_rates) -> float:
    """P(any layer wrong) = 1 - prod_l (1 - eps_l)."""
    eps = np.asarray(per_layer_error_rates, dtype=np.float64)
    if np.any(eps < 0) or np.any(eps > 1):
        raise ValueError("error rates must lie in [0, 1]")
    return float(1.0 - np.prod(1.0 - eps))


# ----------------------------------------------------------------------
# discriminative vs generative rank equivalence
# ----------------------------------------------------------------------

@dataclass
class DiscreteJoint:
    """Finite joint over (user, feature vector, binary engagement).

    Stored factored as p(u), p(f|u), p(y=1|f,u) with feature vectors
    enumerated in mixed-radix order over ``feature_sizes``.
    """

    feature_sizes: tuple
    p_user: np.ndarray  # (U,)
    p_features_given_user: np.ndarray  # (U, F)
    p_pos_given_fu: np.ndarray  # (U, F), p(y=1 | f, u)

    def __post_init__(self):
        self.p_user = np.asarray(self.p_user, dtype=np.float64)
        self.p_features_given_user = np.asarray(self.p_features_given_user, dtype=np.float64)
        self.p_pos_given_fu = np.asarray(self.p_pos_given_fu, dtype=np.float64)
        f = int(np.prod(self.feature_sizes))
        if self.p_features_given_user.shape[1] != f:
            raise ValueError("feature table width does not match feature_sizes")
        if not np.allclose(self.p_user.sum(), 1.0):
            raise ValueError("p(u) must sum to 1")
        if not np.allclose(self.p_features_given_user.sum(axis=1), 1.0):
            raise ValueError("each p(f|u) must sum to 1")
        if np.any(self.p_pos_given_fu < 0) or np.any(self.p_pos_given_fu > 1):
            raise ValueError("p(y=1|f,u) must lie in [0, 1]")

    @property
    def n_combos(self) -> int:
        return int(np.prod(self.feature_sizes))


def random_discrete_joint(rng, max_features=3, max_size=4, uniform_feature_prior=True):
    """Random joint with at most 64 feature combinations.

    The rank-equivalence theorem compares candidates at a fixed user, so
    the candidate prior p(f|u) must not re-weight them; the default keeps
    it uniform.  Non-uniform priors shift the generative score to the
    joint p(f, y=1|u), which ranks differently by design.
    """
    while True:
        n_feat = int(rng.integers(1, max_features + 1))
        sizes = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n_feat))
        if np.prod(sizes) <= 64:
            break
    f = int(np.prod(sizes))
    n_users = int(rng.integers(1, 4))
    p_user = rng.dirichlet(np.ones(n_users))
    if uniform_feature_prior:
        p_f_u = np.full((n_users, f), 1.0 / f)
    else:
        p_f_u = rng.dirichlet(np.ones(f), size=n_users)
    p_pos = rng.uniform(0.05, 0.95, size=(n_users, f))
    return DiscreteJoint(sizes, p_user, p_f_u, p_pos)


@dataclass
class BayesRankResult:
    order_disc: np.ndarray
    order_gen: np.ndarray
    equal_up_to_ties: bool
    score_disc: np.ndarray
    score_gen: np.ndarray
    score_gen_chain: np.ndarray


def _orders_agree(a, b, rel_tol=1e-12) -> bool:
    """No pair strictly ordered one way by ``a`` and the other way by ``b``.

    Scores closer than fp noise count as ties.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    tol_a = rel_tol * np.maximum(np.abs(a[:, None]), np.abs(a[None, :]))
    tol_b = rel_tol * np.maximum(np.abs(b[:, None]), np.abs(b[None, :]))
    strict_a = np.abs(da) > tol_a
    strict_b = np.abs(db) > tol_b
    conflict = strict_a & strict_b & (np.sign(da) != np.sign(db))
    return not bool(conflict.any())


def _ranked(scores) -> np.ndarray:
    """Indices sorted by descending score, index ascending among ties."""
    idx = np.arange(scores.shape[0])
    return idx[np.lexsort((idx, -scores))]


def chain_rule_posterior(joint: DiscreteJoint, u: int) -> np.ndarray:
    """p(f | y=1, u) for every combination, as a product of per-feature
    conditionals p(f_k | f_<k, y=1, u) obtained by marginalizing the
    exact posterior table."""
    p_f_u = joint.p_features_given_user[u]
    p_pos = joint.p_pos_given_fu[u]
    p_y1 = float(p_f_u @ p_pos)
    if p_y1 <= 0.0:
        raise ZeroNormalizerError(f"p(y=1 | u={u}) is zero")
    post = p_f_u * p_pos / p_y1  # exact p(f | y=1, u)
    sizes = joint.feature_sizes
    out = np.ones(joint.n_combos)
    prev = np.ones(1)  # mass of each prefix f_<k, in mixed-radix order
    for k in range(len(sizes)):
        zero = np.flatnonzero(prev <= 0.0)
        if zero.size:
            prefix = tuple(int(v) for v in np.unravel_index(zero[0], sizes[:k]))
            raise ZeroNormalizerError(f"zero-probability feature prefix {prefix} at u={u}")
        block = math.prod(sizes[k + 1:])
        mass = post.reshape(-1, block).sum(axis=1)  # mass of each prefix f_<=k
        out *= np.repeat(mass / np.repeat(prev, sizes[k]), block)
        prev = mass
    return out


def bayes_rank_check(joint: DiscreteJoint, u: int) -> BayesRankResult:
    """Compare discriminative and generative rankings at user ``u``.

    The discriminative route scores each feature vector by p(y=1|f,u).
    The generative route inverts the table to p(f|y=1,u) via Bayes,
    re-expands it with the chain rule, and scores by p(f|y=1,u)*p(y=1|u).
    """
    p_f_u = joint.p_features_given_user[u]
    p_pos = joint.p_pos_given_fu[u]
    p_y1 = float(p_f_u @ p_pos)
    if p_y1 <= 0.0:
        raise ZeroNormalizerError(f"p(y=1 | u={u}) is zero")

    score_disc = p_pos.copy()
    posterior = p_f_u * p_pos / p_y1
    score_gen = posterior * p_y1
    score_gen_chain = chain_rule_posterior(joint, u) * p_y1

    agree = _orders_agree(score_disc, score_gen) and _orders_agree(
        score_disc, score_gen_chain
    )
    return BayesRankResult(
        order_disc=_ranked(score_disc),
        order_gen=_ranked(score_gen),
        equal_up_to_ties=agree,
        score_disc=score_disc,
        score_gen=score_gen,
        score_gen_chain=score_gen_chain,
    )
