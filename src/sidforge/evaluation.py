"""Hit-ratio metrics of a scorer: per-step token HR@3 and beam-search HR@K."""

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


def token_hr3(params, samples) -> dict:
    """Teacher-forced fraction of targets inside the top-3 logits per step."""
    if not samples:
        raise ValueError("eval set must be non-empty")
    space = params.space
    hits = np.zeros(space.n_steps, dtype=np.int64)
    for start in range(0, len(samples), TOKEN_HR3_SLICE):
        cache = _forward_batch(params, samples[start:start + TOKEN_HR3_SLICE])
        for t, probs in enumerate(cache.probs):
            top3 = np.argsort(-probs, axis=1, kind="stable")[:, :3]
            hits[t] += int((top3 == cache.tokens[:, t, None]).any(axis=1).sum())
    ratios = {space.step_name(t): float(hits[t - 1]) / len(samples)
              for t in range(1, space.n_steps + 1)}
    ratios["mean"] = float(hits.sum()) / (len(samples) * space.n_steps)
    return ratios


def bs_hit_ratio(params, trie, samples, k: int, beam_width: int) -> float:
    """Fraction of samples whose target item is resolved by a top-K beam path
    (0.0 for no samples)."""
    hits = 0
    for sample in samples:
        model = NeuralSequenceModel(params, sample.behavior, sample.bos)
        candidates = beam_search(model, trie, beam_width=beam_width, top_k=k)
        hits += any(sample.target_item in c.item_ids for c in candidates)
    return hits / len(samples) if samples else 0.0


def evaluate_model(params, trie, samples, ks, beam_width, metadata=None) -> EvalReport:
    """token HR@3, and HR@K for each K over all samples and over the purchase samples."""
    orders = [s for s in samples if s.level == PURCHASE]
    ratios = token_hr3(params, samples)
    mean = ratios.pop("mean")
    hr = {k: bs_hit_ratio(params, trie, samples, k, beam_width) for k in ks}
    hr_orders = {k: bs_hit_ratio(params, trie, orders, k, beam_width) for k in ks}
    return EvalReport(
        token_hr3=ratios,
        token_hr3_mean=mean,
        hr_at=hr,
        hr_at_orders=hr_orders,
        n_samples=len(samples),
        n_order_samples=len(orders),
        metadata=metadata or {},
    )
