"""Generator and persistence tests for the synthetic corpus module."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidforge import corpus
from sidforge.analysis import conditional_entropy
from sidforge.corpus import (
    ATTR_FIELDS,
    CorpusFormatError,
    Item,
    SynthConfig,
    generate_corpus,
    generate_interactions,
    load_interactions,
    load_items,
    save_interactions,
    save_items,
)


def rederive_blobs(cfg):
    """Re-draw the generator's blob assignment from its documented rng stream."""
    rng = np.random.default_rng([cfg.seed, 0])
    rng.normal(0.0, 4.0, size=(cfg.n_clusters_true, cfg.d_emb))  # centers
    return rng.integers(0, cfg.n_clusters_true, size=cfg.n_items)


def distinct_objects(strings) -> int:
    return len({id(s) for s in strings})


class TestItem:
    @pytest.mark.parametrize("field, value", [
        ("exposure_weight", math.nan), ("exposure_weight", math.inf), ("exposure_weight", 0),
        ("gmv", math.nan), ("gmv", math.inf), ("gmv", -1.0)])
    def test_weight_and_gmv_must_be_finite_and_in_range(self, field, value):
        fields = {"item_id": 3, "embedding": [0.0], "exposure_weight": 1,
                  "attrs": dict.fromkeys(ATTR_FIELDS, "a"), "gmv": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite .* for item 3, "
                                             f"got {value}"):
            Item(**fields)


class TestItemCorpus:
    @pytest.mark.parametrize("ids, message", [
        ([0, 1, 5], "item_id 5 is outside 0..2; the ids must number the items"),
        ([1, 0, 1], "duplicate item_ids in corpus"),
    ])
    def test_ids_must_number_the_items(self, ids, message):
        items = [Item(i, [0.0], 1, dict.fromkeys(ATTR_FIELDS, "a"), 1.0) for i in ids]
        with pytest.raises(ValueError, match=message):
            corpus.ItemCorpus(items=items, d_emb=1)

    @given(n=st.integers(1, 8), ids=st.sets(st.integers(-3, 12)))
    def test_require_every_item_names_a_foreign_id_then_a_missing_one(self, n, ids):
        items = [Item(i, [0.0], 1, dict.fromkeys(ATTR_FIELDS, "a"), 1.0) for i in range(n)]
        corp = corpus.ItemCorpus(items=items, d_emb=1)
        foreign, missing = ids - set(range(n)), set(range(n)) - ids
        if foreign:
            message = f"item_id {min(foreign)} has a SID but is not in the corpus"
        elif missing:
            message = f"item_id {min(missing)} of the corpus has no SID"
        else:
            assert corp.require_every_item(sorted(ids, reverse=True), "SID") is None
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            corp.require_every_item(sorted(ids, reverse=True), "SID")


class TestGenerateCorpus:
    def test_single_item(self):
        corp = generate_corpus(SynthConfig(n_items=1, seed=0))
        assert len(corp) == 1
        assert corp.items[0].exposure_weight >= 1

    def test_rho_one_blob_to_l3_bijection(self):
        cfg = SynthConfig(n_items=4000, n_clusters_true=8, attr_correlation=1.0, seed=5)
        corp = generate_corpus(cfg)
        blobs = rederive_blobs(cfg)
        mapping = {}
        for it, b in zip(corp.items, blobs):
            mapping.setdefault(int(b), set()).add(it.attrs["l3"])
        assert all(len(v) == 1 for v in mapping.values())
        used = {next(iter(v)) for v in mapping.values()}
        assert len(used) == len(mapping)  # bijection onto used categories

    def test_rho_zero_blob_l3_independent(self):
        cfg = SynthConfig(n_items=10_000, n_clusters_true=8, attr_correlation=0.0, seed=2)
        corp = generate_corpus(cfg)
        blobs = rederive_blobs(cfg)
        l3 = np.array([int(it.attrs["l3"].split("_")[1]) for it in corp.items])
        ones = np.ones(len(corp))
        mi = conditional_entropy(l3, ones) - conditional_entropy(l3, ones, blobs)
        assert abs(mi) < 0.05

    def test_zipf_top_share_matches_independent_sampler(self):
        cfg = SynthConfig(n_items=10_000, zipf_exponent=1.1, seed=7)
        corp = generate_corpus(cfg)
        weights = np.sort(corp.weights())[::-1]
        share = weights[:1000].sum() / weights.sum()

        # independent re-implementation of the documented sampling scheme:
        # inverse CDF of t^-s on [1, n], ceil, drawn after centers/blob/
        # emb/l3/seller/brand in the stream
        rng = np.random.default_rng([cfg.seed, 0])
        b, n, d = cfg.n_clusters_true, cfg.n_items, cfg.d_emb
        rng.normal(0.0, 4.0, size=(b, d))
        blob = rng.integers(0, b, size=n)
        rng.normal(0.0, 1.0, size=(n, d))
        for _ in range(3):  # l3, seller, brand
            rng.random(n)
            rng.integers(0, b, size=n)
        u = rng.random(n)
        s = cfg.zipf_exponent
        x = (1.0 + u * (n ** (1.0 - s) - 1.0)) ** (1.0 / (1.0 - s))
        oracle = np.sort(np.ceil(x).astype(int))[::-1]
        oracle_share = oracle[:1000].sum() / oracle.sum()
        assert share == pytest.approx(oracle_share, abs=1e-12)

    def test_bit_reproducible(self):
        cfg = SynthConfig(n_items=300, seed=42, n_requests=40)
        assert generate_corpus(cfg) == generate_corpus(cfg)
        a = generate_interactions(generate_corpus(cfg), cfg)
        b = generate_interactions(generate_corpus(cfg), cfg)
        assert a == b

    def test_one_string_object_per_distinct_attribute_value(self, tmp_path):
        corp = generate_corpus(SynthConfig(n_items=500, seed=4))
        save_items(corp, tmp_path / "items.jsonl")
        for items in (corp.items, load_items(tmp_path / "items.jsonl").items):
            values = [v for it in items for v in it.attrs.values()]
            assert distinct_objects(values) == len(set(values)) < 50

    def test_taxonomy_is_functional(self):
        corp = generate_corpus(SynthConfig(n_items=2000, attr_correlation=0.3, seed=1))
        l3_to_l2 = {}
        for it in corp.items:
            assert l3_to_l2.setdefault(it.attrs["l3"], it.attrs["l2"]) == it.attrs["l2"]

    def test_popularity_concentration_preserves_marginal(self):
        base = SynthConfig(n_items=5000, seed=9)
        conc = SynthConfig(n_items=5000, seed=9, popularity_concentration=0.9,
                           popular_blob_scale=0.1)
        w0 = np.sort(generate_corpus(base).weights())
        w1 = np.sort(generate_corpus(conc).weights())
        assert np.array_equal(w0, w1)  # same multiset, different allocation

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_items=0)
        with pytest.raises(ValueError):
            SynthConfig(zipf_exponent=0.0)
        with pytest.raises(ValueError):
            SynthConfig(attr_correlation=1.5)


class TestGenerateInteractions:
    def test_one_event_per_request(self):
        cfg = SynthConfig(n_items=50, events_per_request=1, n_requests=30, seed=3)
        log = generate_interactions(generate_corpus(cfg), cfg)
        assert all(len(r.events) == 1 for r in log)

    def test_single_item_corpus(self):
        cfg = SynthConfig(n_items=1, events_per_request=3, n_requests=10, seed=3)
        log = generate_interactions(generate_corpus(cfg), cfg)
        assert all(e["item_id"] == 0 for r in log for e in r.events)

    def test_exposure_matches_weights_ks(self):
        cfg = SynthConfig(n_items=500, n_requests=25_000, events_per_request=4, seed=8)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        counts = np.zeros(len(corp))
        for r in log:
            for e in r.events:
                counts[e["item_id"]] += 1
        assert counts.sum() == 100_000
        w = corp.weights()
        ks = np.abs(np.cumsum(counts) / counts.sum() - np.cumsum(w) / w.sum()).max()
        assert ks < 0.05

    def test_distinct_ranks_and_levels(self):
        cfg = SynthConfig(n_items=100, n_requests=50, events_per_request=5, seed=4)
        log = generate_interactions(generate_corpus(cfg), cfg)
        for r in log:
            ranks = [e["exposure_rank"] for e in r.events]
            assert sorted(ranks) == list(range(1, 6))
            assert all(e["level"] in (0, 1, 2) for e in r.events)

    def test_gmv_reward_copies_purchased_gmv(self):
        cfg = SynthConfig(n_items=100, n_requests=200, events_per_request=5, seed=4)
        corp = generate_corpus(cfg)
        log = generate_interactions(corp, cfg)
        for r in log:
            expected = sum(corp.items[e["item_id"]].gmv for e in r.events if e["level"] == 2)
            assert r.reward_metrics["gmv"] == pytest.approx(expected, rel=1e-12)

    def test_a_user_id_is_one_string_object_whether_generated_or_loaded(self, tmp_path):
        cfg = SynthConfig(n_items=50, n_requests=200, seed=4)
        log = generate_interactions(generate_corpus(cfg), cfg)
        save_interactions(log, tmp_path / "log.jsonl")
        for requests in (log, load_interactions(tmp_path / "log.jsonl")):
            for key in ("user_id", "scene", "objective"):
                values = [getattr(r, key) for r in requests]
                assert distinct_objects(values) == len(set(values)) < len(values)


class TestInteraction:
    @pytest.mark.parametrize("metrics, got", [
        ({"gmv": 1.0}, "['gmv']"),
        ({"gmv": 1.0, "watch_time": 2.0, "clicks": 3.0}, "['clicks', 'gmv', 'watch_time']"),
    ], ids=["missing", "extra"])
    def test_reward_metrics_must_have_exactly_the_reward_keys(self, metrics, got):
        events = [{"item_id": 0, "level": 1, "exposure_rank": 1}]
        with pytest.raises(ValueError, match=re.escape(
                f"request r0: reward_metrics must have the keys ['gmv', 'watch_time'], got {got}")):
            corpus.Interaction("r0", "u0", "search", "click", events, metrics)


class TestPersistence:
    def test_items_round_trip(self, tmp_path):
        corp = generate_corpus(SynthConfig(n_items=3, seed=0))
        path = tmp_path / "items.jsonl"
        save_items(corp, path)
        assert load_items(path) == corp

    def test_interactions_round_trip(self, tmp_path):
        cfg = SynthConfig(n_items=20, n_requests=15, seed=0)
        log = generate_interactions(generate_corpus(cfg), cfg)
        path = tmp_path / "inter.jsonl"
        save_interactions(log, path)
        assert load_interactions(path) == log

    def test_empty_corpus_round_trip(self, tmp_path):
        corp = corpus.ItemCorpus(items=[], d_emb=0)
        path = tmp_path / "empty.jsonl"
        save_items(corp, path)
        loaded = load_items(path)
        assert len(loaded) == 0

    def test_corrupted_line_names_line_number(self, tmp_path):
        corp = generate_corpus(SynthConfig(n_items=3, seed=0))
        path = tmp_path / "items.jsonl"
        save_items(corp, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]  # truncate line 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_items(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(
            '{"item_id": 0, "embedding": [0.0], "exposure_weight": 1, '
            '"attrs": {"l1": "a", "l2": "b", "l3": "c", "seller": "s", "brand": "r"}, '
            '"gmv": 1.0, "bogus": 3}\n'
        )
        with pytest.raises(CorpusFormatError, match="bogus"):
            load_items(path)


def test_wrong_type_message_shows_80_characters_of_the_value():
    value = [0.5] * 100_000
    with pytest.raises(ValueError) as exc:
        corpus.expect("object", "tensors", value)
    assert str(exc.value) == "tensors must be an object, got " + repr(value)[:80]
