"""Clustering, capacity repair, and residual-layering tests."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge.corpus import (
    Item,
    ItemCorpus,
    SynthConfig,
    generate_corpus,
    zipf_integer_weights,
)
from sidforge.quantizer import (
    CapacityError,
    capacity_constrained_rq,
    capacity_kmeans_layer,
    kmeanspp_init,
    load_sids,
    rq_kmeans_baseline,
    save_codebook,
    save_sids,
)

from helpers import (
    capacity_inputs,
    cluster_load,
    reconstruction_error,
    reference_capacity_kmeans_layer,
)


def toy_corpus(points, weights, d):
    items = [
        Item(i, np.asarray(p, float), int(w),
             {"l1": "a", "l2": "b", "l3": "c", "seller": "s", "brand": "r"}, 1.0)
        for i, (p, w) in enumerate(zip(points, weights))
    ]
    return ItemCorpus(items=items, d_emb=d)


class TestKmeansppInit:
    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        cents = kmeanspp_init(pts, 6, seed=1)
        matched = {int(np.argmin(((pts - c) ** 2).sum(axis=1))) for c in cents}
        assert matched == set(range(6))
        for c in cents:
            assert any(np.array_equal(c, p) for p in pts)

    def test_k1_is_an_input_point(self):
        pts = np.random.default_rng(2).normal(size=(10, 2))
        cents = kmeanspp_init(pts, 1, seed=0)
        assert any(np.array_equal(cents[0], p) for p in pts)

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(100, 4))
        a = kmeanspp_init(pts, 8, seed=5)
        b = kmeanspp_init(pts, 8, seed=5)
        assert np.array_equal(a, b)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeanspp_init(np.zeros((3, 2)), 4, seed=0)


class TestClusterLoad:
    def test_direct_summation(self):
        v = cluster_load([0, 0, 1], [2.0, 3.0, 5.0])
        assert v.tolist() == [5.0, 5.0]

    def test_single_cluster(self):
        v = cluster_load([0, 0, 0], [1.0, 2.0, 3.0])
        assert v.tolist() == [6.0]

    def test_empty_cluster_zero(self):
        v = cluster_load([0, 2], [1.0, 1.0], n_clusters=4)
        assert v.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_conserves_total(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 7, size=50)
        w = rng.uniform(0.1, 5, size=50)
        assert cluster_load(z, w, 7).sum() == pytest.approx(w.sum())


class TestCapacityKmeansLayer:
    def test_symmetric_pairs_split_exactly_at_cap(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        w = np.ones(4)
        res = capacity_kmeans_layer(pts, w, k=2, tau=1.0, seed=0)
        loads = cluster_load(res.assignments, w, 2)
        assert sorted(loads.tolist()) == [2.0, 2.0]
        # geometry forces the two tight pairs to stay together
        assert res.assignments[0] == res.assignments[1]
        assert res.assignments[2] == res.assignments[3]

    def test_zipf_points_respect_cap(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(100, 5))
        w = zipf_integer_weights(rng, 100, 1.1).astype(float)
        res = capacity_kmeans_layer(pts, w, k=8, tau=1.05, seed=1)
        assert res.violations == []
        recount = np.bincount(res.assignments, weights=w, minlength=8)
        assert recount.max() <= 1.05 * w.sum() / 8 + 1e-9

    def test_weight_conservation_after_repair(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3))
        w = np.ceil(rng.pareto(1.2, size=200) + 1)
        res = capacity_kmeans_layer(pts, w, k=6, tau=1.1, seed=0)
        assert res.loads.sum() == pytest.approx(w.sum())

    def test_unbounded_objective_monotone(self):
        # with the repair pass disabled, Lloyd never increases the objective
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(150, 4))
        w = np.ones(150)
        objs = []
        for max_iter in range(1, 12):
            res = capacity_kmeans_layer(pts, w, k=5, tau=None, seed=2, max_iter=max_iter)
            objs.append(res.objective)
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_overweight_item_strict_error_names_item(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        w = np.ones(10)
        w[3] = 100.0
        with pytest.raises(CapacityError, match=re.escape(
                "layer 0: 3 capacity violation(s), the first overweight_item at item index 3 "
                "(excess 45.5 over cap 54.5)")):
            capacity_constrained_rq(toy_corpus(pts, w, 2), 2, 2, 1.0, seed=0, strict=True)

    def test_strict_run_names_an_item_no_cluster_could_take(self):
        # cap 30.5: the weight-21 item fills one cluster, so neither weight-20 item finds room
        pts = np.array([[0.0], [0.001], [0.002]])
        w = np.array([20.0, 20.0, 21.0])
        with pytest.raises(CapacityError, match=re.escape(
                "layer 0: 3 capacity violation(s), the first no_feasible_target at item "
                "index 1 (excess 9.5 over cap 30.5)")):
            capacity_constrained_rq(toy_corpus(pts, w, 1), 1, 2, 1.0, seed=0, strict=True)

    def test_overweight_item_lenient_reports_violation(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        w = np.ones(10)
        w[3] = 100.0
        res = capacity_kmeans_layer(pts, w, k=2, tau=1.0, seed=0)
        assert any(v.reason == "overweight_item" and v.item_index == 3
                   for v in res.violations)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_weight_that_is_not_finite_and_positive_names_its_index(self, bad):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        w = np.ones(6)
        w[4] = bad
        with pytest.raises(ValueError, match=f"weights must be finite and > 0, got {bad} "
                                             f"at index 4"):
            capacity_kmeans_layer(pts, w, k=2, tau=1.5, seed=0)

    def test_no_violations_implies_feasible(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(80, 3))
            w = np.ceil(rng.pareto(1.3, size=80) + 1)
            res = capacity_kmeans_layer(pts, w, k=4, tau=1.2, seed=seed)
            if not res.violations:
                recount = np.bincount(res.assignments, weights=w, minlength=4)
                assert recount.max() <= 1.2 * w.sum() / 4 + 1e-9


class TestCapacityProperties:
    @given(capacity_inputs(), st.sampled_from((1.0, 0.1, 1 / 3)))
    @settings(max_examples=120, deadline=None)
    def test_layer_equals_sequential_reference(self, inputs, scale):
        # the batched repair pass, hoisted distances and bincount means give
        # the one-member-at-a-time definition's result bit for bit; scaled
        # weights make the load sums round
        points, weights, k, tau = inputs
        args = (points, weights * scale, k, tau, 3)
        got = capacity_kmeans_layer(*args, max_iter=12, layer=1)
        want = reference_capacity_kmeans_layer(*args, max_iter=12, layer=1)
        assert np.array_equal(got.assignments, want.assignments)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.loads.tobytes() == want.loads.tobytes()
        assert got.objective == want.objective
        assert got.n_iter == want.n_iter
        assert got.violations == want.violations

    @given(capacity_inputs())
    @settings(max_examples=60, deadline=None)
    def test_every_layer_within_cap_or_violation_recorded(self, inputs):
        points, weights, k, tau = inputs
        corp = toy_corpus(points, weights, points.shape[1])
        rq = capacity_constrained_rq(corp, 3, k, tau, seed=0, max_iter=8)
        if tau is None or math.isinf(tau):
            assert not rq.violations
            return
        cap = tau * weights.sum() / k
        codes = rq.codes_matrix()
        for l, lr in enumerate(rq.layer_results):
            loads = cluster_load(codes[:, l], weights, k)
            covered = {v.cluster for v in lr.violations}
            covered |= {int(codes[v.item_index, l]) for v in lr.violations
                        if v.reason == "overweight_item"}
            assert all(v.layer == l for v in lr.violations)
            for c in np.flatnonzero(loads > cap):
                assert int(c) in covered, (l, int(c), loads[c], cap)
        # strict mode raises exactly where lenient mode records a violation
        if rq.violations:
            with pytest.raises(CapacityError, match=f"layer {rq.violations[0].layer}:"):
                capacity_constrained_rq(corp, 3, k, tau, seed=0, max_iter=8, strict=True)
        else:
            strict = capacity_constrained_rq(corp, 3, k, tau, seed=0, max_iter=8, strict=True)
            assert strict.sids == rq.sids


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SynthConfig(n_items=300, d_emb=8, n_clusters_true=4, seed=3))


class TestResidualQuantization:
    def test_single_layer_reduces_to_one_kmeans(self, small_corpus):
        rq = capacity_constrained_rq(small_corpus, 1, 8, 1.1, seed=5)
        emb = np.array([it.embedding for it in
                        sorted(small_corpus.items, key=lambda i: i.item_id)])
        w = np.array([it.exposure_weight for it in
                      sorted(small_corpus.items, key=lambda i: i.item_id)], float)
        layer = capacity_kmeans_layer(emb, w, 8, 1.1, seed=5)
        assert np.array_equal(rq.codes_matrix()[:, 0], layer.assignments)
        assert np.array_equal(rq.codebook.layers[0], layer.centroids)

    def test_unbounded_equals_baseline(self, small_corpus):
        a = capacity_constrained_rq(small_corpus, 3, 8, None, seed=1)
        b = rq_kmeans_baseline(small_corpus, 3, 8, seed=1)
        assert a.sids == b.sids
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.codebook.layers, b.codebook.layers))

    def test_k1_all_codes_zero(self, small_corpus):
        rq = rq_kmeans_baseline(small_corpus, 2, 1, seed=0)
        assert np.all(rq.codes_matrix() == 0)

    def test_reconstruction_error_non_increasing_in_depth(self, small_corpus):
        errs = []
        for n_layers in (1, 2, 3):
            rq = capacity_constrained_rq(small_corpus, n_layers, 8, 1.2, seed=7)
            errs.append(reconstruction_error(small_corpus, rq.sids, rq.codebook))
        assert errs[0] >= errs[1] >= errs[2]

    def test_codes_invariant_under_item_permutation(self, small_corpus):
        rq1 = capacity_constrained_rq(small_corpus, 2, 8, 1.1, seed=9)
        rng = np.random.default_rng(0)
        shuffled = list(small_corpus.items)
        rng.shuffle(shuffled)
        corp2 = ItemCorpus(items=shuffled, d_emb=small_corpus.d_emb)
        assert corp2 == small_corpus
        rq2 = capacity_constrained_rq(corp2, 2, 8, 1.1, seed=9)
        assert rq1.sids == rq2.sids
        # row i of the weights and of the codes is item i
        assert [s.item_id for s in rq2.sids] == list(range(len(corp2)))
        assert corp2.weights().tolist() == [it.exposure_weight for it in small_corpus.items]

    def test_capacity_slack_when_k_exceeds_items(self):
        # equal weights, K = n: singleton clusters are feasible at tau = 1
        # and each layer's objective beats any coarser assignment
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 4))
        corp = toy_corpus(pts, np.ones(20), 4)
        rq = capacity_constrained_rq(corp, 2, 20, 1.0, seed=0, strict=True)
        w = corp.weights()
        for l in range(2):
            loads = np.bincount(rq.codes_matrix()[:, l], weights=w, minlength=20)
            assert loads.max() <= w.sum() / 20 + 1e-9
        rq_coarse = capacity_constrained_rq(corp, 2, 4, 1.5, seed=0)
        for fine, coarse in zip(rq.layer_results, rq_coarse.layer_results):
            assert fine.objective <= coarse.objective + 1e-9


class TestCodebookPersistence:
    def test_round_trip(self, small_corpus, tmp_path):
        rq = capacity_constrained_rq(small_corpus, 2, 4, 1.1, seed=2)
        cb_path = tmp_path / "codebook.json"
        sid_path = tmp_path / "sids.jsonl"
        save_codebook(rq.codebook, cb_path, meta={"seed": 2})
        save_sids(rq.sids, sid_path)
        cb = rq.codebook
        assert json.loads(cb_path.read_text()) == {
            "K": 4, "L": 2, "tau": 1.1, "cap": 1.1 * (small_corpus.weights().sum() / 4),
            "layers": [layer.tolist() for layer in cb.layers], "meta": {"seed": 2}}
        assert load_sids(sid_path) == rq.sids

    def test_cap_is_the_enforced_cap_and_null_when_uncapped(self, small_corpus, tmp_path):
        w = small_corpus.weights()
        rq = capacity_constrained_rq(small_corpus, 2, 4, 1.1, seed=2)
        # the repair pass brings every load to the recorded cap: none ends above it
        for layer in rq.layer_results:
            assert not layer.violations and layer.loads.max() <= rq.codebook.cap
        assert rq.codebook.cap == 1.1 * (w.sum() / 4)
        for uncapped in (rq_kmeans_baseline(small_corpus, 2, 4, seed=2),
                         capacity_constrained_rq(small_corpus, 2, 4, math.inf, seed=2)):
            assert uncapped.codebook.tau is None and uncapped.codebook.cap is None
            save_codebook(uncapped.codebook, tmp_path / "codebook.json")
            assert json.loads((tmp_path / "codebook.json").read_text())["cap"] is None

    def test_semantic_ids_have_no_dict(self, small_corpus):
        sid = capacity_constrained_rq(small_corpus, 2, 4, 1.1, seed=2).sids[0]
        assert not hasattr(sid, "__dict__")

    def test_tau_validation(self, monkeypatch):
        """A tau below 1, NaN included, raises before any clustering."""
        def no_clustering(*args):
            raise AssertionError("kmeanspp_init called")

        monkeypatch.setattr("sidforge.quantizer.kmeanspp_init", no_clustering)
        pts, w = np.zeros((4, 2)), np.ones(4)
        corp = toy_corpus(pts, w, 2)
        for tau in (0.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="tau must be None or >= 1"):
                capacity_kmeans_layer(pts, w, k=2, tau=tau, seed=0)
            with pytest.raises(ValueError, match="tau must be None or >= 1"):
                capacity_constrained_rq(corp, 2, 2, tau, seed=0)
        for tau in (None, math.inf, 1.0, 1.5):
            with pytest.raises(AssertionError, match="kmeanspp_init called"):
                capacity_kmeans_layer(pts, w, k=2, tau=tau, seed=0)
