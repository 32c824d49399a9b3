"""Concentration, entropy, cascading-error, and rank-equivalence tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge.analysis import (
    DiscreteJoint,
    ZeroNormalizerError,
    bayes_rank_check,
    cascading_error,
    chain_rule_posterior,
    conditional_entropy,
    entropy_reduction,
    exposure_concentration,
    exposure_report,
    random_discrete_joint,
)

from helpers import combo_digits


class TestExposureConcentration:
    def test_uniform_prefixes(self):
        codes = np.arange(100)[:, None]
        share = exposure_concentration(codes, np.ones(100), 1, 0.1)
        assert share == pytest.approx(0.10)

    def test_hand_sum(self):
        codes = np.array([[0], [1], [2]])
        share = exposure_concentration(codes, [8.0, 1.0, 1.0], 1, 1 / 3)
        assert share == pytest.approx(0.8)

    def test_monotone_and_total(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 5, size=(200, 3))
        w = rng.uniform(0.5, 10, size=200)
        shares = [exposure_concentration(codes, w, 3, f)
                  for f in (0.05, 0.1, 0.3, 0.7, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0)

    def test_report_shape(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(50, 2))
        rep = exposure_report(codes, np.ones(50))
        assert set(rep) == {"1", "2"}
        for d in rep.values():
            assert sum(d["shares"]) == pytest.approx(1.0)

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError):
            exposure_concentration(np.empty((0, 2)), [], 1, 0.1)


class TestConditionalEntropy:
    def test_deterministic_given_condition_is_zero(self):
        cond = np.array([0, 0, 1, 1, 2, 2])
        target = cond * 3  # function of the condition
        assert conditional_entropy(target, np.ones(6), cond) == pytest.approx(0.0)

    def test_uniform_four_values_independent_condition(self):
        target = np.tile([0, 1, 2, 3], 4)
        cond = np.repeat([0, 1], 8)
        h = conditional_entropy(target, np.ones(16), cond)
        assert h == pytest.approx(2.0)

    def test_matches_brute_force_double_loop(self):
        # mixed 6-sequence toy table, exposure-weighted
        cond = np.array([0, 0, 1, 1, 1, 2])
        target = np.array([0, 1, 0, 0, 1, 1])
        w = np.array([2.0, 1.0, 3.0, 1.0, 1.0, 4.0])

        total = w.sum()
        oracle = 0.0
        for c in set(cond.tolist()):
            wc = w[cond == c].sum()
            for t in set(target.tolist()):
                wct = w[(cond == c) & (target == t)].sum()
                if wct > 0:
                    oracle += (wct / total) * math.log2(wc / wct)
        h = conditional_entropy(target, w, cond)
        assert h == pytest.approx(oracle, abs=1e-12)


class TestEntropyReduction:
    def test_conditionally_independent_exact_table(self):
        # joint over (attr, code) as an exact product table: delta must be 0
        p_attr = np.array([0.3, 0.7])
        p_code = np.array([0.1, 0.2, 0.3, 0.4])
        rows = []
        weights = []
        for a, pa in enumerate(p_attr):
            for c, pc in enumerate(p_code):
                rows.append((a, c))
                weights.append(pa * pc)
        attrs = np.array([r[0] for r in rows])
        codes = np.array([[r[1]] for r in rows])
        delta = entropy_reduction(codes, attrs, np.array(weights), 0)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_attr_determines_code(self):
        # attribute fully determines the code, code uniform over 8
        attrs = np.arange(8)
        codes = np.arange(8)[:, None]
        delta = entropy_reduction(codes, attrs, np.ones(8), 0)
        assert delta == pytest.approx(3.0)

    def test_exact_tables_nonnegative_and_zero_iff_independent(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            na, nc = 3, 4
            if trial % 2 == 0:
                joint = rng.dirichlet(np.ones(na * nc)).reshape(na, nc)
                independent = False
            else:
                joint = np.outer(rng.dirichlet(np.ones(na)), rng.dirichlet(np.ones(nc)))
                independent = True
            attrs, codes, w = [], [], []
            for a in range(na):
                for c in range(nc):
                    attrs.append(a)
                    codes.append([c])
                    w.append(joint[a, c])
            delta = entropy_reduction(np.array(codes), np.array(attrs), np.array(w), 0)
            assert delta >= -1e-12
            if independent:
                assert delta == pytest.approx(0.0, abs=1e-10)
            else:
                assert delta > 1e-6

    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(9)
        attrs = rng.integers(0, 3, size=500)
        codes = rng.integers(0, 5, size=(500, 2))
        w = rng.uniform(0.1, 3.0, size=500)
        h_prefix = conditional_entropy(codes[:, 1], w, codes[:, :1])
        both = np.concatenate([attrs[:, None], codes[:, :1]], axis=1)
        h_both = conditional_entropy(codes[:, 1], w, both)
        assert h_both <= h_prefix + 1e-12


class TestCascadingError:
    def test_zero_rates(self):
        assert cascading_error([0.0, 0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert cascading_error([0.1, 0.1]) == pytest.approx(0.19)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_componentwise_rates(self, eps, shrink):
        eps = np.asarray(eps)
        smaller = eps * shrink
        assert cascading_error(smaller) <= cascading_error(eps) + 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_union_bound(self, eps):
        assert cascading_error(eps) <= float(np.sum(eps)) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cascading_error([0.5, 1.2])


def loop_chain_rule_posterior(joint, u):
    """Reference: each factor's prefix mass summed by a mask over all combinations."""
    p_f_u, p_pos = joint.p_features_given_user[u], joint.p_pos_given_fu[u]
    post = p_f_u * p_pos / float(p_f_u @ p_pos)
    digits = combo_digits(joint)
    out = np.ones(joint.n_combos)
    for c in range(joint.n_combos):
        prev = 1.0
        for k in range(len(joint.feature_sizes)):
            mass = float(post[np.all(digits[:, :k + 1] == digits[c, :k + 1], axis=1)].sum())
            out[c] *= mass / prev
            prev = mass
    return out


class TestBayesRankCheck:
    def test_dominance(self):
        joint = DiscreteJoint(
            feature_sizes=(2,),
            p_user=np.array([1.0]),
            p_features_given_user=np.array([[0.5, 0.5]]),
            p_pos_given_fu=np.array([[0.9, 0.1]]),
        )
        res = bayes_rank_check(joint, 0)
        assert res.order_disc.tolist() == [0, 1]
        assert res.order_gen.tolist() == [0, 1]
        assert res.equal_up_to_ties

    def test_full_tie(self):
        joint = DiscreteJoint(
            feature_sizes=(3,),
            p_user=np.array([1.0]),
            p_features_given_user=np.array([[1 / 3, 1 / 3, 1 / 3]]),
            p_pos_given_fu=np.array([[0.4, 0.4, 0.4]]),
        )
        assert bayes_rank_check(joint, 0).equal_up_to_ties

    def test_agreement_over_100_random_joints(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            joint = random_discrete_joint(rng)
            for u in range(joint.p_user.shape[0]):
                res = bayes_rank_check(joint, u)
                assert res.equal_up_to_ties, f"disagreement at seed {seed} user {u}"

    def test_chain_rule_expansion_matches_direct_posterior(self):
        rng = np.random.default_rng(7)
        joint = random_discrete_joint(rng, uniform_feature_prior=False)
        p_f_u = joint.p_features_given_user[0]
        p_pos = joint.p_pos_given_fu[0]
        p_y1 = p_f_u @ p_pos
        direct = p_f_u * p_pos / p_y1
        chained = chain_rule_posterior(joint, 0)
        np.testing.assert_allclose(chained, direct, rtol=1e-10)

    def test_chain_rule_matches_the_per_combination_loop(self):
        for seed in range(50):
            joint = random_discrete_joint(np.random.default_rng(seed),
                                          uniform_feature_prior=False)
            for u in range(joint.p_user.shape[0]):
                np.testing.assert_array_equal(chain_rule_posterior(joint, u),
                                              loop_chain_rule_posterior(joint, u))

    def test_nonuniform_candidate_prior_breaks_equivalence(self):
        # generative score = p(y=1|f,u) * p(f|u): a skewed candidate prior
        # reorders, which is exactly why the equivalence needs uniformity
        joint = DiscreteJoint(
            feature_sizes=(2,),
            p_user=np.array([1.0]),
            p_features_given_user=np.array([[0.05, 0.95]]),
            p_pos_given_fu=np.array([[0.9, 0.1]]),
        )
        res = bayes_rank_check(joint, 0)
        assert not res.equal_up_to_ties

    def test_zero_normalizer_error(self):
        joint = DiscreteJoint(
            feature_sizes=(2,),
            p_user=np.array([1.0]),
            p_features_given_user=np.array([[0.5, 0.5]]),
            p_pos_given_fu=np.array([[0.0, 0.0]]),
        )
        with pytest.raises(ZeroNormalizerError):
            bayes_rank_check(joint, 0)

    def test_zero_mass_feature_prefix_is_named(self):
        # p(y=1|u) = 0.5 > 0, but f_0 = 1 has no mass, so p(f_1 | f_0 = 1, y=1, u)
        # has a zero normalizer
        joint = DiscreteJoint(
            feature_sizes=(2, 2),
            p_user=np.array([1.0]),
            p_features_given_user=np.array([[0.5, 0.5, 0.0, 0.0]]),
            p_pos_given_fu=np.array([[0.5, 0.5, 0.5, 0.5]]),
        )
        with pytest.raises(ZeroNormalizerError, match=r"feature prefix \(1,\) at u=0"):
            chain_rule_posterior(joint, 0)
