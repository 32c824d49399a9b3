"""Reward shaping, advantage normalization, RFT/DPO loss and pair tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge import alignment, scorer
from sidforge.alignment import (
    AlignmentError,
    PreferencePair,
    batch_rewards,
    build_dpo_pairs,
    dpo_loss_and_grad,
    engagement_alpha,
    enumerate_request_pairs,
    joint_loss,
    normalize_advantages,
    rft_loss_and_grad,
)
from sidforge.corpus import (CLICK, EXPOSURE, PURCHASE, Interaction, SynthConfig, generate_corpus,
                             generate_interactions)
from sidforge.scorer import Sample, ntp_loss_and_grad

from helpers import (
    finite_difference_grads,
    max_grad_rel_error,
    random_sample,
    teacher_forced_batches,
    tiny_params,
)


class TestCompositeReward:
    def test_zero_weights(self):
        weights = {"gmv": 0.0, "watch_time": 0.0}
        metrics = [{"gmv": 5.0, "watch_time": 2.0}, {"gmv": 1.0, "watch_time": 7.0}]
        assert batch_rewards(metrics, weights).tolist() == [0.0, 0.0]

    def test_single_metric_identity(self):
        metrics = [{"gmv": 0.0, "watch_time": 9.0}, {"gmv": 4.0, "watch_time": 1.0},
                   {"gmv": 1.0, "watch_time": 5.0}]
        assert batch_rewards(metrics, {"gmv": 1.0}).tolist() == [0.0, 1.0, 0.25]

    def test_hand_weighted_sum(self):
        metrics = [{"gmv": 2.0, "watch_time": 10.0}, {"gmv": 4.0, "watch_time": 0.0},
                   {"gmv": 0.0, "watch_time": 5.0}]
        r = batch_rewards(metrics, {"gmv": 0.7, "watch_time": 0.3})
        # the same bits as summing from 0.0 in the order of the weights
        assert r.tolist() == [0.0 + 0.7 * 0.5 + 0.3 * 1.0, 0.0 + 0.7 * 1.0 + 0.3 * 0.0,
                              0.0 + 0.7 * 0.0 + 0.3 * 0.5]

    def test_constant_metric_counts_zero(self):
        metrics = [{"gmv": 3.0, "watch_time": w} for w in (0.0, 1.0, 2.0)]
        r = batch_rewards(metrics, {"gmv": 0.7, "watch_time": 0.3})
        assert r.tolist() == [0.0, 0.3 * 0.5, 0.3 * 1.0]

    def test_minmax_normalization(self):
        metrics = [{"gmv": g, "watch_time": 0.0} for g in (0.0, 5.0, 10.0)]
        assert batch_rewards(metrics, {"gmv": 1.0}).tolist() == [0.0, 0.5, 1.0]


class TestNormalizeAdvantages:
    def test_constant_rewards_all_zero(self):
        adv = normalize_advantages([1.0, 1.0, 1.0], c_clip=3.0, eps=1e-8)
        assert np.all(adv == 0.0)

    def test_two_point_batch_hand_computed(self):
        adv = normalize_advantages([0.0, 2.0], c_clip=5.0, eps=1e-8)
        # A = [-1, 1], sigma = 1, normalized = +-1/(1 + 1e-8)
        np.testing.assert_allclose(adv, [-1.0 / (1 + 1e-8), 1.0 / (1 + 1e-8)])

    def test_clip_saturation(self):
        adv = normalize_advantages([0.0, 100.0], c_clip=0.5, eps=1e-8)
        np.testing.assert_allclose(adv, [-0.5, 0.5])

    def test_mean_zero(self):
        rng = np.random.default_rng(0)
        adv = normalize_advantages(rng.normal(size=64), c_clip=10.0, eps=1e-8)
        assert np.abs(adv).max() < 10.0  # the clip does not bind
        assert abs(adv.mean()) < 1e-12

    def test_shift_invariance_exact_arithmetic(self):
        base = normalize_advantages([0.0, 2.0, 7.0], c_clip=3.0, eps=1e-8)
        shifted = normalize_advantages([4.0, 6.0, 11.0], c_clip=3.0, eps=1e-8)
        assert base.tobytes() == shifted.tobytes()

    def test_shift_invariance_random_floats(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=10)
        a = normalize_advantages(r, 3.0, 1e-8)
        b = normalize_advantages(r + 0.7315, 3.0, 1e-8)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestEngagementAlpha:
    def test_click_weight_one(self):
        assert engagement_alpha(CLICK, gmv=50.0, mean_gmv=5.0) == 1.0

    def test_purchase_log_damped(self):
        a = engagement_alpha(PURCHASE, gmv=10.0, mean_gmv=5.0)
        assert a == pytest.approx(1.0 + math.log1p(2.0))

    def test_cap(self):
        assert engagement_alpha(PURCHASE, gmv=1e9, mean_gmv=1.0) == 10.0


class TestRft:
    def test_lambda_zero_is_bitwise_ntp(self):
        rng = np.random.default_rng(21)
        params = tiny_params(rng)
        batch = [random_sample(rng, params) for _ in range(3)]
        adv = normalize_advantages([1.0, 5.0, 2.0], c_clip=3.0, eps=1e-8)
        loss_rft, grads_rft = rft_loss_and_grad(batch, adv, 0.0, params)
        loss_ntp, grads_ntp = ntp_loss_and_grad(batch, params)
        assert loss_rft == loss_ntp
        for name in grads_ntp:
            assert grads_rft[name].tobytes() == grads_ntp[name].tobytes()

    def test_uniform_rewards_reduce_to_ntp(self):
        rng = np.random.default_rng(22)
        params = tiny_params(rng)
        batch = [random_sample(rng, params) for _ in range(3)]
        adv = normalize_advantages([2.0, 2.0, 2.0], c_clip=3.0, eps=1e-8)
        loss_rft, grads_rft = rft_loss_and_grad(batch, adv, 0.7, params)
        loss_ntp, grads_ntp = ntp_loss_and_grad(batch, params)
        assert loss_rft == loss_ntp
        for name in grads_ntp:
            assert grads_rft[name].tobytes() == grads_ntp[name].tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        params = tiny_params(rng)
        batch = [random_sample(rng, params) for _ in range(2)]
        adv = normalize_advantages([0.2, 3.1], c_clip=2.0, eps=1e-8)
        _, grads = rft_loss_and_grad(batch, adv, 0.3, params)
        fd = finite_difference_grads(
            lambda p: rft_loss_and_grad(batch, adv, 0.3, p)[0], params)
        assert max_grad_rel_error(grads, fd) < 1e-4

    def test_negative_effective_weight_errors(self):
        rng = np.random.default_rng(24)
        params = tiny_params(rng)
        batch = [random_sample(rng, params) for _ in range(5)]
        # one low outlier: normalized advantages are [-2.0, 0.5 x4], so
        # lam = 0.6 drives the outlier's weight to 1 - 1.2 < 0
        adv = normalize_advantages([0.0, 100.0, 100.0, 100.0, 100.0], c_clip=3.0, eps=1e-8)
        with pytest.raises(AlignmentError, match="effective weight"):
            rft_loss_and_grad(batch, adv, 0.6, params)


class TestPreferenceLevels:
    def test_behavior_level_mapping(self):
        assert PURCHASE == 2
        assert CLICK == 1
        assert EXPOSURE == 0


def _pair_for(params, rng):
    space = params.space
    toks = lambda: tuple(int(rng.integers(0, space.step_vocab_size(t)))
                         for t in range(1, space.n_steps + 1))
    w, l = toks(), toks()
    while l[-1] == w[-1]:  # distinct final tokens keep the margin responsive
        l = toks()
    return PreferencePair(
        request_id="r0", behavior=(1, 2), bos=0, winner=w, loser=l,
        winner_item=1, loser_item=2, winner_level=2, loser_level=1,
        winner_rank=1, loser_rank=2,
    )


class TestBuildDpoPairs:
    def test_single_event_no_pairs(self):
        events = [{"item_id": 0, "level": 2, "exposure_rank": 1}]
        assert enumerate_request_pairs(events) == []

    def test_three_level_request(self):
        events = [
            {"item_id": 0, "level": 2, "exposure_rank": 1},
            {"item_id": 1, "level": 1, "exposure_rank": 2},
            {"item_id": 2, "level": 0, "exposure_rank": 3},
        ]
        pairs = enumerate_request_pairs(events)
        # level pairs (p,c), (p,e), (c,e); no equal levels here, but rank
        # ordering also applies within the level-sorted events
        assert (0, 1) in pairs and (0, 2) in pairs and (1, 2) in pairs

    @given(st.lists(st.integers(0, 2), max_size=7), st.randoms(use_true_random=False))
    def test_pairs_and_their_order_follow_the_written_rule(self, levels, random):
        ranks = random.sample(range(1, 20), len(levels))
        events = [{"item_id": i, "level": lv, "exposure_rank": r}
                  for i, (lv, r) in enumerate(zip(levels, ranks))]
        want = [(i, j) for i, ei in enumerate(events) for j, ej in enumerate(events)
                if ei["level"] > ej["level"] or (ei["level"] == ej["level"]
                                                 and ei["exposure_rank"] < ej["exposure_rank"])]
        assert enumerate_request_pairs(events) == want

    def test_never_violates_preference_order(self):
        cfg = SynthConfig(n_items=50, n_requests=60, events_per_request=5, seed=6)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        seqs = {it.item_id: (0, 1) for it in corp.items}
        ctxs = {r.request_id: ((), 0) for r in log}
        pairs = build_dpo_pairs(log, seqs, ctxs, per_request_cap=4, seed=0)
        assert pairs
        for p in pairs:
            assert (p.winner_level > p.loser_level
                    or (p.winner_level == p.loser_level and p.winner_rank < p.loser_rank))

    def test_pairs_have_no_dict(self):
        events = [{"item_id": i, "level": i, "exposure_rank": i + 1} for i in range(2)]
        log = [Interaction("r0", "u0", "search", "click", events,
                           {"gmv": 0.0, "watch_time": 0.0})]
        pair, = build_dpo_pairs(log, {0: (0, 1), 1: (1, 0)}, {"r0": ((), 0)}, 4, seed=0)
        assert not hasattr(pair, "__dict__")

    def test_request_without_a_context_raises_key_error(self):
        cfg = SynthConfig(n_items=40, n_requests=20, events_per_request=4, seed=7)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        seqs = {it.item_id: (0, 1) for it in corp.items}
        ctxs = {r.request_id: ((), 0) for r in log[:-1]}
        with pytest.raises(KeyError, match=log[-1].request_id):
            build_dpo_pairs(log, seqs, ctxs, per_request_cap=4, seed=0)

    def test_pairs_do_not_depend_on_the_order_of_the_log(self):
        cfg = SynthConfig(n_items=40, n_requests=100, events_per_request=4, seed=7)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        seqs = {it.item_id: (0, 1) for it in corp.items}
        ctxs = {r.request_id: ((), 0) for r in log}
        shuffled = [log[i] for i in np.random.default_rng(3).permutation(len(log))]
        want = build_dpo_pairs(log, seqs, ctxs, per_request_cap=4, seed=11)
        assert build_dpo_pairs(shuffled, seqs, ctxs, per_request_cap=4, seed=11) == want

    def test_matches_enumerate_then_sample_oracle(self):
        cfg = SynthConfig(n_items=40, n_requests=100, events_per_request=4, seed=7)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        seqs = {it.item_id: (0, 1) for it in corp.items}
        ctxs = {r.request_id: ((), 0) for r in log}
        cap = 4
        got = build_dpo_pairs(log, seqs, ctxs, per_request_cap=cap, seed=11)

        # independent oracle: exhaustive enumeration + the same seeded draw
        rng = np.random.default_rng(11)
        expected = []
        for req in log:
            events = req.events
            cands = []
            for i in range(len(events)):
                for j in range(len(events)):
                    if i == j:
                        continue
                    li, lj = events[i]["level"], events[j]["level"]
                    ri, rj = events[i]["exposure_rank"], events[j]["exposure_rank"]
                    if li > lj or (li == lj and ri < rj):
                        cands.append((i, j))
            if not cands:
                continue
            if len(cands) > cap:
                idx = rng.choice(len(cands), size=cap, replace=False)
                cands = [cands[int(i)] for i in np.sort(idx)]
            for i, j in cands:
                expected.append((req.request_id,
                                 events[i]["item_id"], events[j]["item_id"]))
        assert [(p.request_id, p.winner_item, p.loser_item) for p in got] == expected


class TestDpo:
    def test_identical_policies_give_ln2(self):
        rng = np.random.default_rng(31)
        params = tiny_params(rng)
        pairs = [_pair_for(params, rng) for _ in range(3)]
        loss, _ = dpo_loss_and_grad(pairs, params, params, beta=0.1)
        assert abs(loss - math.log(2)) < 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        rng = np.random.default_rng(32)
        params = tiny_params(rng)
        ref = scorer.clone_params(params)
        pair = _pair_for(params, rng)
        last = params.space.n_steps
        losses = []
        for boost in (0.0, 3.0, 30.0):
            p = scorer.clone_params(params)
            p.tensors[f"head_b_{last}"][pair.winner[-1]] += boost
            losses.append(dpo_loss_and_grad([pair], p, ref, beta=0.5)[0])
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-4

    def test_gradcheck_stop_off(self):
        rng = np.random.default_rng(33)
        params = tiny_params(rng)
        ref = scorer.clone_params(params)
        for name in ref.trainable_names():
            ref.tensors[name] = ref.tensors[name] + 0.05 * rng.standard_normal(
                ref.tensors[name].shape)
        pairs = [_pair_for(params, rng) for _ in range(2)]
        _, grads = dpo_loss_and_grad(pairs, params, ref, beta=1.5, stop_grad=False)
        fd = finite_difference_grads(
            lambda p: dpo_loss_and_grad(pairs, p, ref, beta=1.5, stop_grad=False)[0],
            params)
        assert max_grad_rel_error(grads, fd) < 1e-4

    def test_gradcheck_stop_on_against_frozen_prefix_surrogate(self):
        rng = np.random.default_rng(34)
        params = tiny_params(rng)
        ref = scorer.clone_params(params)
        for name in ref.trainable_names():
            ref.tensors[name] = ref.tensors[name] + 0.05 * rng.standard_normal(
                ref.tensors[name].shape)
        pair = _pair_for(params, rng)
        w_s = Sample(behavior=pair.behavior, bos=pair.bos, tokens=pair.winner)
        l_s = Sample(behavior=pair.behavior, bos=pair.bos, tokens=pair.loser)
        base = scorer.clone_params(params)
        base_w = scorer._forward_batch(base, [w_s]).target_logps[0]
        base_l = scorer._forward_batch(base, [l_s]).target_logps[0]
        ref_w = scorer._forward_batch(ref, [w_s]).target_logps[0].sum()
        ref_l = scorer._forward_batch(ref, [l_s]).target_logps[0].sum()
        beta = 1.5

        def surrogate(p):
            lw = base_w[:-1].sum() + scorer._forward_batch(p, [w_s]).target_logps[0, -1]
            ll = base_l[:-1].sum() + scorer._forward_batch(p, [l_s]).target_logps[0, -1]
            return float(np.logaddexp(0.0, -beta * ((lw - ref_w) - (ll - ref_l))))

        _, grads = dpo_loss_and_grad([pair], params, ref, beta=beta, stop_grad=True)
        fd = finite_difference_grads(surrogate, params)
        assert max_grad_rel_error(grads, fd) < 1e-4

    def test_stop_grad_rank_head_isolation(self):
        rng = np.random.default_rng(35)
        params = tiny_params(rng)
        ref = scorer.clone_params(params)
        pairs = [_pair_for(params, rng) for _ in range(2)]
        _, grads = dpo_loss_and_grad(pairs, params, ref, beta=0.1, stop_grad=True)
        last = params.space.n_steps
        for t in range(1, last):
            assert np.all(grads[f"head_w_{t}"] == 0.0)
            assert np.all(grads[f"head_b_{t}"] == 0.0)

    @pytest.mark.parametrize("stop_grad", [True, False])
    def test_one_reference_forward_one_forward_one_backward(self, monkeypatch, stop_grad):
        """Each scorer pass runs once, over the winners and then their losers."""
        rng = np.random.default_rng(37)
        params = tiny_params(rng)
        pairs = [_pair_for(params, rng) for _ in range(3)]
        calls = []

        def count(name, paths):
            inner = getattr(alignment, name)

            def counted(params, rows, *args, **kwargs):
                calls.append((name, paths(rows)))
                return inner(params, rows, *args, **kwargs)
            monkeypatch.setattr(alignment, name, counted)

        count("sequence_logprobs", lambda samples: [s.tokens for s in samples])
        count("_forward_batch", lambda samples: [s.tokens for s in samples])
        count("_accumulate_backward", lambda cache: list(map(tuple, cache.tokens.tolist())))
        dpo_loss_and_grad(pairs, params, scorer.clone_params(params), beta=0.1,
                          stop_grad=stop_grad)
        rows = [p.winner for p in pairs] + [p.loser for p in pairs]
        assert calls == [("sequence_logprobs", rows), ("_forward_batch", rows),
                         ("_accumulate_backward", rows)]

    def test_nonpositive_beta_errors(self):
        rng = np.random.default_rng(36)
        params = tiny_params(rng)
        with pytest.raises(AlignmentError):
            dpo_loss_and_grad([_pair_for(params, rng)], params, params, beta=0.0)


class TestJointLoss:
    def setup_case(self, seed):
        rng = np.random.default_rng(seed)
        params = tiny_params(rng)
        ref = scorer.clone_params(params)
        batch = [random_sample(rng, params) for _ in range(3)]
        adv = normalize_advantages([0.5, 1.5, 4.0], c_clip=3.0, eps=1e-8)
        pairs = [_pair_for(params, rng) for _ in range(2)]
        return params, ref, batch, adv, pairs

    def test_lambda_dpo_zero_is_bitwise_rft(self):
        params, ref, batch, adv, pairs = self.setup_case(41)
        loss_j, grads_j = joint_loss(batch, pairs, params, ref, adv, lambda_dpo=0.0)
        loss_r, grads_r = rft_loss_and_grad(batch, adv, 0.2, params)
        assert loss_j == loss_r
        for name in grads_r:
            assert grads_j[name].tobytes() == grads_r[name].tobytes()

    def test_empty_pairs_contribute_zero(self):
        params, ref, batch, adv, _ = self.setup_case(42)
        loss_j, _ = joint_loss(batch, [], params, ref, adv, lambda_dpo=0.15)
        loss_r, _ = rft_loss_and_grad(batch, adv, 0.2, params)
        assert loss_j == loss_r

    def test_twenty_to_three_weighting_reproduces_hand_sum(self):
        params, ref, batch, adv, pairs = self.setup_case(43)
        loss_j, grads_j = joint_loss(
            batch, pairs, params, ref, adv, lam=0.2, beta=0.1, stop_grad=True,
            lambda_rft=20.0, lambda_dpo=3.0,
        )
        loss_r, grads_r = rft_loss_and_grad(batch, adv, 0.2, params)
        loss_d, grads_d = dpo_loss_and_grad(pairs, params, ref, beta=0.1, stop_grad=True)
        assert loss_j == 20.0 * loss_r + 3.0 * loss_d
        for name in grads_j:
            np.testing.assert_allclose(
                grads_j[name], 20.0 * grads_r[name] + 3.0 * grads_d[name], atol=1e-14)


@given(teacher_forced_batches(), st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_dpo_batch_matches_one_pair_calls(drawn, stop_grad, seed):
    params, samples = drawn
    rng = np.random.default_rng(seed)
    reference = scorer.clone_params(params)
    for name in reference.trainable_names():
        reference.tensors[name] = reference.tensors[name] + 0.05 * rng.standard_normal(
            reference.tensors[name].shape)
    # consecutive samples pair up, so winners and losers share repeated paths
    pairs = [PreferencePair(request_id="r", behavior=w.behavior, bos=w.bos, winner=w.tokens,
                            loser=l.tokens, winner_item=0, loser_item=1, winner_level=2,
                            loser_level=1, winner_rank=1, loser_rank=2)
             for w, l in zip(samples, samples[1:])]
    loss, grads = dpo_loss_and_grad(pairs, params, reference, beta=0.5, stop_grad=stop_grad)
    want_loss, want_grads = 0.0, scorer.zero_grads(params)
    for pair in pairs:
        pair_loss, pair_grads = dpo_loss_and_grad([pair], params, reference, beta=0.5,
                                                  stop_grad=stop_grad)
        want_loss += pair_loss / len(pairs)
        for name, g in pair_grads.items():
            want_grads[name] += g / len(pairs)
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)
