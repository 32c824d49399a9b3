"""Business-value alignment: advantage-reweighted NTP and preference pairs.

RFT rescales each sample's next-token loss by (1 + lambda * clipped,
batch-normalized advantage) of a composite reward.  DPO contrasts
winner/loser paths drawn from the same request against a frozen reference
model, optionally stopping gradients on every decoding step except the
final SID layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CLICK, EXPOSURE, PURCHASE
from .scorer import (
    Sample,
    _accumulate_backward,
    _forward_batch,
    _weighted_nll_and_grad,
    sequence_logprobs,
    zero_grads,
)


class AlignmentError(ValueError):
    pass


def batch_rewards(metric_dicts, weights: dict) -> np.ndarray:
    """Composite reward of each of a batch's ``metric_dicts``: the sum, in
    ``weights`` order, of each weighted metric min-max normalized over the
    batch, a metric constant over the batch counting 0."""
    total = np.zeros(len(metric_dicts))
    for name, weight in weights.items():
        values = np.array([m[name] for m in metric_dicts], dtype=np.float64)
        lo, span = values.min(), values.max() - values.min()
        total += weight * ((values - lo) / span if span > 0 else np.zeros_like(values))
    return total


def normalize_advantages(rewards, c_clip: float, eps: float) -> np.ndarray:
    """clip(A / (sigma_A + eps), -c_clip, c_clip) with A = R - mean(R) and
    sigma_A the root-mean-square of A."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 1:
        raise ValueError("batch must contain at least one reward")
    centered = r - r.mean()
    sigma = float(np.sqrt((centered**2).mean()))
    return np.clip(centered / (sigma + eps), -c_clip, c_clip)


def engagement_alpha(level: int, gmv: float, mean_gmv: float, cap: float = 10.0) -> float:
    """Sample weight: 1 for clicks, GMV-damped boost for purchases."""
    if level == PURCHASE and mean_gmv > 0:
        return min(cap, 1.0 + math.log1p(gmv / mean_gmv))
    return 1.0


def rft_loss_and_grad(batch, advantages: np.ndarray, lam: float, params):
    """NTP with each sample scaled by (1 + lam * advantage) * alpha, where
    ``advantages`` are :func:`normalize_advantages`' clipped ones."""
    if len(batch) != advantages.shape[0]:
        raise AlignmentError("advantages not aligned with batch")
    weights = 1.0 + lam * advantages
    bad = np.flatnonzero(weights <= 0)
    if bad.size:
        raise AlignmentError(
            f"non-positive effective weight {weights[bad[0]]:.4f} at sample {int(bad[0])}; "
            f"require lam * c_clip < 1"
        )
    return _weighted_nll_and_grad(batch, weights, params)


# ----------------------------------------------------------------------
# preference pairs and DPO
# ----------------------------------------------------------------------

def preference_level(event) -> int:
    """Behavioral level of an interaction event: purchase 2, click 1, exposure 0."""
    level = event["level"]
    if level not in (EXPOSURE, CLICK, PURCHASE):
        raise AlignmentError(f"invalid preference level {level!r}")
    return level


@dataclass(frozen=True, slots=True)
class PreferencePair:
    request_id: str
    behavior: tuple
    bos: int
    winner: tuple  # token path of the preferred item
    loser: tuple
    winner_item: int
    loser_item: int
    winner_level: int
    loser_level: int
    winner_rank: int
    loser_rank: int


def enumerate_request_pairs(events) -> list:
    """All ordered (winner, loser) event index pairs within one request.

    Winner has the strictly higher level, or the smaller exposure rank at
    equal levels: the larger key (level, -exposure_rank).
    """
    keys = [(preference_level(e), -e["exposure_rank"]) for e in events]
    return [(i, j) for i, ki in enumerate(keys) for j, kj in enumerate(keys) if ki > kj]


def build_dpo_pairs(log, sequences_by_item: dict, contexts_by_request: dict,
                    per_request_cap: int, seed) -> list:
    """Request-grouped preference pairs, capped per request by seeded sampling.

    ``sequences_by_item`` maps the item_id of every event to its decoded token
    path (no BOS) and ``contexts_by_request`` the request_id of every request
    to its (behavior tokens, bos token); a missing one raises ``KeyError``.
    Requests are walked in request_id order, so the seeded draws do not depend
    on the order of the log.  Requests without a usable pair contribute nothing.
    """
    rng = np.random.default_rng(seed)
    out = []
    for req in sorted(log, key=lambda r: r.request_id):
        behavior, bos = contexts_by_request[req.request_id]
        events = req.events
        tokens = [tuple(sequences_by_item[e["item_id"]]) for e in events]
        candidates = enumerate_request_pairs(events)
        if not candidates:
            continue
        if len(candidates) > per_request_cap:
            idx = rng.choice(len(candidates), size=per_request_cap, replace=False)
            candidates = [candidates[int(i)] for i in np.sort(idx)]
        for i, j in candidates:
            ei, ej = events[i], events[j]
            out.append(
                PreferencePair(
                    request_id=req.request_id,
                    behavior=tuple(behavior),
                    bos=bos,
                    winner=tokens[i],
                    loser=tokens[j],
                    winner_item=ei["item_id"],
                    loser_item=ej["item_id"],
                    winner_level=ei["level"],
                    loser_level=ej["level"],
                    winner_rank=ei["exposure_rank"],
                    loser_rank=ej["exposure_rank"],
                )
            )
    return out


def _sigmoid(x):
    # sigma(x) = exp(-softplus(-x)), stable for both signs
    return np.exp(-np.logaddexp(0.0, -x))


def dpo_loss_and_grad(pairs, params, reference, beta: float, stop_grad: bool = True):
    """-mean log sigmoid(beta * (winner log-ratio - loser log-ratio)).

    Sequence log-probs are teacher-forced step sums against the frozen
    reference snapshot.  With ``stop_grad`` on, every decoding step except
    the last contributes its value but no gradient.
    """
    if beta <= 0:
        raise AlignmentError("beta must be > 0")
    if not pairs:
        raise AlignmentError("no preference pairs")
    n_steps = params.space.n_steps
    coeff_mask = np.ones(n_steps)
    if stop_grad:
        coeff_mask[:-1] = 0.0

    # winners in rows 0..n-1, their losers in rows n..2n-1
    n = len(pairs)
    samples = ([Sample(behavior=p.behavior, bos=p.bos, tokens=p.winner) for p in pairs]
               + [Sample(behavior=p.behavior, bos=p.bos, tokens=p.loser) for p in pairs])
    ref_w, ref_l = np.split(sequence_logprobs(reference, samples), 2)
    # with stop_grad only the last step is kept for the backward
    cache = _forward_batch(params, samples, keep=coeff_mask != 0)
    lp_w, lp_l = np.split(cache.target_logps.sum(axis=1), 2)
    finite = np.isfinite(lp_w) & np.isfinite(lp_l) & np.isfinite(ref_w) & np.isfinite(ref_l)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise AlignmentError(
            f"non-finite log-prob for pair {k} "
            f"(items {pairs[k].winner_item} vs {pairs[k].loser_item})"
        )
    margin = (lp_w - ref_w) - (lp_l - ref_l)
    loss = float(np.logaddexp(0.0, -beta * margin).sum())  # -log sigmoid(beta*margin)
    d_margin = -beta * _sigmoid(-beta * margin)

    grads = zero_grads(params)
    _accumulate_backward(params, cache,
                         np.concatenate([d_margin, -d_margin])[:, None] * coeff_mask / n, grads)
    return loss / n, grads


def joint_loss(batch, pairs, params, reference, advantages, lam: float = 0.2,
               beta: float = 0.1, stop_grad: bool = True,
               lambda_rft: float = 1.0, lambda_dpo: float = 0.15):
    """lambda_rft * L_RFT + lambda_dpo * L_DPO with summed gradients.

    An empty pair set (or lambda_dpo == 0) contributes a zero DPO term by
    convention, leaving the RFT term untouched bit for bit when
    lambda_rft == 1 (``x * 1.0 == x`` for every float).
    """
    loss_rft, grads = rft_loss_and_grad(batch, advantages, lam, params)
    loss_rft = lambda_rft * loss_rft
    for name in grads:
        grads[name] *= lambda_rft
    if lambda_dpo == 0.0 or not pairs:
        return loss_rft, grads
    loss_dpo, grads_dpo = dpo_loss_and_grad(pairs, params, reference, beta, stop_grad)
    total = loss_rft + lambda_dpo * loss_dpo
    for name in grads:
        grads[name] += lambda_dpo * grads_dpo[name]
    return total, grads
