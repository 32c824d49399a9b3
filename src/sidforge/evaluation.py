"""Hit-ratio metrics and the attribute-chain / quantizer ablation harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import PURCHASE
from .decoder import beam_search
from .scorer import NeuralSequenceModel, _forward_batch


@dataclass
class EvalReport:
    token_hr3: dict  # step name -> ratio
    token_hr3_mean: float
    hr_at: dict  # K -> ratio, all samples
    hr_at_orders: dict  # K -> ratio, purchase samples only
    n_samples: int
    n_order_samples: int
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {**vars(self), "hr_at": {str(k): v for k, v in self.hr_at.items()},
                "hr_at_orders": {str(k): v for k, v in self.hr_at_orders.items()}}


# token_hr3 forwards the eval set in slices of this many samples, which
# bounds the forward's memory
TOKEN_HR3_SLICE = 64


def token_top3_hits(params, samples):
    """Per-step counts of targets appearing in the top-3 step predictions."""
    hits = np.zeros(params.space.n_steps, dtype=np.int64)
    for start in range(0, len(samples), TOKEN_HR3_SLICE):
        cache = _forward_batch(params, samples[start:start + TOKEN_HR3_SLICE])
        for t, probs in enumerate(cache.probs):
            top3 = np.argsort(-probs, axis=1, kind="stable")[:, :3]
            hits[t] += int((top3 == cache.tokens[:, t, None]).any(axis=1).sum())
    return hits


def token_hr3(params, samples) -> dict:
    """Teacher-forced fraction of targets inside the top-3 logits per step."""
    if not samples:
        raise ValueError("eval set must be non-empty")
    hits = token_top3_hits(params, samples)
    space = params.space
    ratios = {space.step_name(t): float(hits[t - 1]) / len(samples)
              for t in range(1, space.n_steps + 1)}
    ratios["mean"] = float(hits.sum()) / (len(samples) * space.n_steps)
    return ratios


def bs_hit_ratio(params, trie, samples, k: int, beam_width: int | None = None,
                 subset_filter: str = "all") -> float:
    """Fraction of samples whose target item is resolved by a top-K beam path."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if subset_filter not in ("all", "orders"):
        raise ValueError("subset_filter must be 'all' or 'orders'")
    width = beam_width if beam_width is not None else max(k, 2 * k)
    chosen = [s for s in samples
              if subset_filter == "all" or s.level == PURCHASE]
    if not chosen:
        return 0.0
    hits = 0
    for sample in chosen:
        model = NeuralSequenceModel(params, sample.behavior, sample.bos)
        candidates = beam_search(model, trie, beam_width=width, top_k=k)
        retrieved = set()
        for c in candidates:
            retrieved.update(c.item_ids)
        if sample.target_item in retrieved:
            hits += 1
    return hits / len(chosen)


def evaluate_model(params, trie, samples, ks=(5, 10, 20), beam_width=None,
                   metadata=None) -> EvalReport:
    ratios = token_hr3(params, samples)
    mean = ratios.pop("mean")
    hr = {k: bs_hit_ratio(params, trie, samples, k, beam_width, "all") for k in ks}
    hr_orders = {k: bs_hit_ratio(params, trie, samples, k, beam_width, "orders") for k in ks}
    n_orders = sum(1 for s in samples if s.level == PURCHASE)
    return EvalReport(
        token_hr3=ratios,
        token_hr3_mean=mean,
        hr_at=hr,
        hr_at_orders=hr_orders,
        n_samples=len(samples),
        n_order_samples=n_orders,
        metadata=metadata or {},
    )
