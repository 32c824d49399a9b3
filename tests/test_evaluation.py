"""Hit-ratio metric tests against brute-force oracles."""

import numpy as np
import pytest

from sidforge import tokenizer
from sidforge.corpus import CLICK, PURCHASE
from sidforge.decoder import build_trie
from sidforge.evaluation import bs_hit_ratio, evaluate_model, token_hr3
from sidforge.scorer import NeuralSequenceModel, Sample, ScorerConfig, init_scorer



def make_params(sid_sizes, attr_chain=(), d_model=4, seed=0, n_behavior=10):
    attr_vocabs = {
        "l2": {f"a{i}": i for i in range(3)},
        "l3": {f"b{i}": i for i in range(3)},
    }
    space = tokenizer.SequenceSpace(attr_chain=attr_chain, attr_vocabs=attr_vocabs,
                                    sid_sizes=sid_sizes)
    spec = tokenizer.hash_spec_for_space(space, d_hash=3)
    return init_scorer(space, spec, n_behavior, ScorerConfig(d_model=d_model, seed=seed))


class TestTokenHr3:
    def test_biased_scorer_always_correct(self):
        params = make_params((6, 6))
        target = (2, 4)
        for t, tok in enumerate(target, start=1):
            params.tensors[f"head_w_{t}"][:] = 0
            params.tensors[f"head_b_{t}"][:] = 0
            params.tensors[f"head_b_{t}"][tok] = 10.0
        samples = [Sample(behavior=(i % 3,), bos=0, tokens=target) for i in range(8)]
        ratios = token_hr3(params, samples)
        assert ratios["s0"] == 1.0 and ratios["s1"] == 1.0 and ratios["mean"] == 1.0

    def test_vocab_at_most_three_is_always_hit(self):
        params = make_params((3, 2))
        rng = np.random.default_rng(0)
        samples = [
            Sample(behavior=(), bos=1,
                   tokens=(int(rng.integers(3)), int(rng.integers(2))))
            for _ in range(20)
        ]
        ratios = token_hr3(params, samples)
        assert ratios["s0"] == 1.0 and ratios["s1"] == 1.0

    def test_random_scorer_uniform_targets_binomial(self):
        # random-logit scorer, uniform random targets over vocab 30:
        # hit prob is exactly 3/30; 3 sigma at n = 10^4 is 0.009
        params = make_params((30,), d_model=4, seed=3)
        rng = np.random.default_rng(42)
        samples = [Sample(behavior=(int(rng.integers(10)),), bos=0,
                          tokens=(int(rng.integers(30)),))
                   for _ in range(10_000)]
        ratios = token_hr3(params, samples)
        assert abs(ratios["s0"] - 0.1) <= 0.009

    def test_step_names_follow_chain(self):
        params = make_params((4, 4), attr_chain=("l2", "l3"))
        samples = [Sample(behavior=(), bos=0, tokens=(0, 1, 2, 3))]
        ratios = token_hr3(params, samples)
        assert set(ratios) == {"l2", "l3", "s0", "s1", "mean"}


class TestBsHitRatio:
    def test_full_beam_full_k_retrieves_everything(self):
        params = make_params((3, 3))
        rng = np.random.default_rng(1)
        seqs = {i: (int(rng.integers(3)), int(rng.integers(3))) for i in range(9)}
        trie = build_trie(seqs)
        samples = [Sample(behavior=(), bos=0, tokens=seqs[i], target_item=i,
                          level=CLICK)
                   for i in seqs]
        ratio = bs_hit_ratio(params, trie, samples, k=9, beam_width=9)
        assert ratio == 1.0

    def test_target_absent_from_trie_scores_zero(self):
        params = make_params((3, 3))
        trie = build_trie({0: (0, 0)})
        samples = [Sample(behavior=(), bos=0, tokens=(0, 0), target_item=123,
                          level=CLICK)]
        assert bs_hit_ratio(params, trie, samples, k=1, beam_width=2) == 0.0

    def test_matches_exhaustive_ranking_oracle(self):
        params = make_params((5, 5), seed=9)
        rng = np.random.default_rng(7)
        seqs = {i: (int(rng.integers(5)), int(rng.integers(5))) for i in range(200)}
        trie = build_trie(seqs)
        samples = [Sample(behavior=(int(rng.integers(10)),), bos=0, tokens=seqs[i],
                          target_item=i, level=CLICK)
                   for i in list(seqs)[:40]]
        k = 3
        got = bs_hit_ratio(params, trie, samples, k=k, beam_width=25)

        hits = 0
        for s in samples:
            model = NeuralSequenceModel(params, s.behavior, s.bos)
            scored = []
            for path in trie.paths():
                lp = sum(float(model.step_logprobs(path[:t])[path[t]])
                         for t in range(len(path)))
                scored.append((path, lp))
            scored.sort(key=lambda e: (-e[1], e[0]))
            retrieved = set()
            for path, _ in scored[:k]:
                retrieved.update(trie.items_at(path))
            hits += s.target_item in retrieved
        assert got == pytest.approx(hits / len(samples))

    def test_monotone_in_k(self):
        params = make_params((4, 4), seed=5)
        rng = np.random.default_rng(3)
        seqs = {i: (int(rng.integers(4)), int(rng.integers(4))) for i in range(30)}
        trie = build_trie(seqs)
        samples = [Sample(behavior=(), bos=0, tokens=seqs[i], target_item=i,
                          level=CLICK)
                   for i in list(seqs)[:10]]
        ratios = [bs_hit_ratio(params, trie, samples, k=k, beam_width=16)
                  for k in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_order_subset_consistency(self):
        params = make_params((3, 3), seed=2)
        seqs = {i: (i % 3, (i // 3) % 3) for i in range(9)}
        trie = build_trie(seqs)
        samples = [Sample(behavior=(i % 4,), bos=0, tokens=seqs[i], target_item=i,
                          level=PURCHASE if i % 3 else CLICK)
                   for i in seqs]
        orders = [s for s in samples if s.level == PURCHASE]
        report = evaluate_model(params, trie, samples, ks=(1, 2, 4), beam_width=9)
        for k in (1, 2, 4):
            assert report.hr_at_orders[k] == bs_hit_ratio(params, trie, orders, k, 9)
            assert report.hr_at[k] == bs_hit_ratio(params, trie, samples, k, 9)

    def test_report_fields(self):
        params = make_params((3, 3), seed=2)
        seqs = {i: (i % 3, (i // 3) % 3) for i in range(9)}
        trie = build_trie(seqs)
        samples = [Sample(behavior=(), bos=0, tokens=seqs[i], target_item=i,
                          level=PURCHASE if i % 2 else CLICK)
                   for i in seqs]
        report = evaluate_model(params, trie, samples, ks=(1, 3), beam_width=9)
        assert report.n_samples == 9
        assert report.n_order_samples == 4
        assert set(report.hr_at) == {1, 3}
        assert 0.0 <= report.token_hr3_mean <= 1.0
