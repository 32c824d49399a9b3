"""Sequence space, task BOS, hash sizing, and content-summary tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge.corpus import SynthConfig, generate_corpus
from sidforge.quantizer import SemanticId
from sidforge.tokenizer import (
    HashSpec,
    SequenceSpace,
    TokenizerError,
    build_sequence,
    content_summary_rows,
    hash_spec_for_space,
    hash_table_size,
    task_bos_token,
)

from helpers import hash_rows, reference_content_summary_rows


@pytest.fixture(scope="module")
def corpus_and_space():
    corp = generate_corpus(SynthConfig(n_items=200, n_clusters_true=8, seed=0))
    space = SequenceSpace(attr_chain=("l2", "l3"), attr_vocabs=corp.attr_vocabs,
                          sid_sizes=(16, 16, 16))
    return corp, space


class TestTaskBos:
    def test_same_context_same_token(self, corpus_and_space):
        _, space = corpus_and_space
        assert (task_bos_token("click", "main_feed", space)
                == task_bos_token("click", "main_feed", space))

    def test_injective_over_cross_product(self, corpus_and_space):
        _, space = corpus_and_space
        tokens = {
            task_bos_token(o, s, space)
            for o in space.objectives for s in space.scenes
        }
        assert len(tokens) == len(space.objectives) * len(space.scenes)

    def test_objective_changes_token(self, corpus_and_space):
        _, space = corpus_and_space
        a = task_bos_token("purchase", "main_feed", space)
        b = task_bos_token("click", "main_feed", space)
        assert a != b

    def test_unregistered_errors(self, corpus_and_space):
        _, space = corpus_and_space
        with pytest.raises(TokenizerError):
            task_bos_token("bogus", "main_feed", space)
        with pytest.raises(TokenizerError):
            task_bos_token("click", "bogus", space)


class TestSequenceSpace:
    def test_step_arrays_follow_from_the_fields(self, corpus_and_space):
        corp, space = corpus_and_space
        assert [f.name for f in dataclasses.fields(space)] == [
            "attr_chain", "attr_vocabs", "sid_sizes", "objectives", "scenes"]
        sizes = [len(corp.attr_vocabs["l2"]), len(corp.attr_vocabs["l3"]), 16, 16, 16]
        assert space.step_vocab_sizes.dtype == space.step_offsets.dtype == np.int64
        assert space.step_vocab_sizes.tolist() == sizes
        base = space.n_task_tokens
        assert space.step_offsets.tolist() == [base + sum(sizes[:t]) for t in range(5)]
        assert all(type(space.step_vocab_size(t)) is int for t in range(1, 6))

    def test_equal_fields_make_equal_spaces(self, corpus_and_space):
        corp, space = corpus_and_space
        assert space == SequenceSpace.from_dict(space.as_dict())
        assert space != SequenceSpace(("l2", "l3"), corp.attr_vocabs, (16, 16, 8))

    @pytest.mark.parametrize("sid_sizes", [(16, 0), (16, 10**20), (2**30, 2**30)])
    def test_sizes_outside_31_bits_or_not_positive_raise(self, corpus_and_space, sid_sizes):
        with pytest.raises(TokenizerError, match=r"sid_sizes must be positive and all steps"):
            SequenceSpace(("l2",), corpus_and_space[0].attr_vocabs, sid_sizes)


class TestBuildSequence:
    def test_direct_sid_arm_length(self, corpus_and_space):
        corp, _ = corpus_and_space
        space = SequenceSpace(attr_chain=(), attr_vocabs=corp.attr_vocabs,
                              sid_sizes=(16, 16, 16))
        path = build_sequence(corp.items[0], SemanticId(0, (1, 2, 3)), space)
        assert path == (1, 2, 3)

    def test_chain_order(self, corpus_and_space):
        corp, space = corpus_and_space
        item = corp.items[5]
        path = build_sequence(item, SemanticId(5, (0, 1, 2)), space)
        assert len(path) == 2 + 3
        assert path[0] == space.attr_vocabs["l2"][item.attrs["l2"]]
        assert path[1] == space.attr_vocabs["l3"][item.attrs["l3"]]
        assert path[2:] == (0, 1, 2)

    def test_tokens_round_trip_vocab(self, corpus_and_space):
        corp, space = corpus_and_space
        item = corp.items[0]
        path = build_sequence(item, SemanticId(0, (3, 4, 5)), space)
        inv_l2 = {v: k for k, v in space.attr_vocabs["l2"].items()}
        assert inv_l2[path[0]] == item.attrs["l2"]
        for t, tok in enumerate(path, start=1):
            assert 0 <= tok < space.step_vocab_size(t)

    def test_missing_attribute_errors(self, corpus_and_space):
        corp, _ = corpus_and_space
        space = SequenceSpace(attr_chain=("l2",), attr_vocabs=corpus_and_space[0].attr_vocabs,
                              sid_sizes=(16, 16, 16))
        item = corp.items[0]
        broken = type(item)(item_id=999, embedding=item.embedding,
                            exposure_weight=1, attrs=dict(item.attrs), gmv=0.0)
        broken.attrs["l2"] = "unseen-species"
        with pytest.raises(TokenizerError):
            build_sequence(broken, SemanticId(999, (0, 0, 0)), space)


class TestHashTableSize:
    def test_single_vocab(self):
        assert hash_table_size([8]) == 8

    def test_two_tens(self):
        assert hash_table_size([10, 10]) == 21

    def test_production_scale_pair(self):
        # floor((4000*4000)^(2/3)) pinned by a 60-digit big-float oracle
        import mpmath

        mpmath.mp.dps = 60
        oracle = int(mpmath.floor(mpmath.power(4000 * 4000, mpmath.mpf(2) / 3)))
        assert hash_table_size([4000, 4000]) == oracle == 63496

    def test_random_tuples_vs_bigfloat_oracle(self):
        import mpmath

        mpmath.mp.dps = 60
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            sizes = [int(rng.integers(1, 10_000)) for _ in range(n)]
            prod = int(np.prod(sizes))
            oracle = int(mpmath.floor(mpmath.power(prod, mpmath.mpf(2) / (n + 1))))
            assert hash_table_size(sizes) == oracle

    def test_monotone_in_each_vocab(self):
        base = hash_table_size([50, 60, 70])
        assert hash_table_size([51, 60, 70]) >= base
        assert hash_table_size([50, 61, 70]) >= base
        assert hash_table_size([50, 60, 71]) >= base

    def test_errors(self):
        with pytest.raises(ValueError):
            hash_table_size([])
        with pytest.raises(ValueError):
            hash_table_size([0, 5])


class TestContentSummary:
    def spec_and_table(self, pair_sizes=(101,), pairs=((1, 3),), d_hash=4):
        spec = HashSpec(pairs=pairs, pair_sizes=pair_sizes, d_hash=d_hash)
        rng = np.random.default_rng(0)
        table = rng.normal(size=(spec.table_rows, d_hash))
        return spec, table

    def test_empty_prefix_all_null(self):
        spec, table = self.spec_and_table()
        rows = content_summary_rows(np.zeros((2, 0), dtype=np.int64), spec)
        assert rows.shape == (2, spec.m_hashes)
        assert np.all(rows == spec.null_row)
        np.testing.assert_array_equal(table[rows[0]].reshape(-1),
                                      np.tile(table[spec.null_row], spec.m_hashes))

    def test_deterministic(self):
        spec, _ = self.spec_and_table()
        paths = np.array([[5, 6, 7]])
        np.testing.assert_array_equal(content_summary_rows(paths, spec),
                                      content_summary_rows(paths, spec))

    def test_hand_evaluated_rows(self):
        # pair (x=5, y=7), p1=31, p2=37, S=101:
        #   H1 = 5+7 = 12; H2 = 5*7 = 35; H3 = 31*5 + 37*7 = 414, 414 % 101 = 10
        spec, _ = self.spec_and_table()
        assert content_summary_rows(np.array([[5, 6, 7]]), spec).tolist() == [[12, 35, 10]]
        assert hash_rows(spec, 0, 5, 7) == [12, 35, 10]

    def test_output_dim_constant_across_prefix_lengths(self):
        spec, table = self.spec_and_table(pair_sizes=(101, 55), pairs=((1, 3), (2, 3)))
        path = np.array([[4, 9, 2]])
        for n in range(4):
            rows = content_summary_rows(path[:, :n], spec)
            assert table[rows].reshape(1, -1).shape == (1, spec.output_dim)
            assert np.all(rows == spec.null_row) if n < 3 else np.all(rows != spec.null_row)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefix_array_matches_the_padded_reference(self, data):
        """A (B, n) prefix gives the rows of the path padded with -1 to its full
        length, bit for bit."""
        n_steps = data.draw(st.integers(1, 5))
        step = st.integers(1, n_steps)
        pairs = tuple(data.draw(st.lists(st.tuples(step, step), min_size=1, max_size=4)))
        spec = HashSpec(pairs=pairs,
                        pair_sizes=tuple(data.draw(st.integers(1, 50)) for _ in pairs),
                        m_hashes=data.draw(st.integers(1, 3)))
        b, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, n_steps))
        prefix = np.array(data.draw(st.lists(st.integers(0, 60), min_size=b * n,
                                             max_size=b * n)), dtype=np.int64).reshape(b, n)
        padded = np.full((b, n_steps), -1, dtype=np.int64)
        padded[:, :n] = prefix
        rows = content_summary_rows(prefix, spec)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, reference_content_summary_rows(padded, spec))

    def test_array_of_paths_matches_per_pair_hashes(self, corpus_and_space):
        _, space = corpus_and_space
        paths = np.array([[4, 9, 2, 7, 5], [3, 8, 1, 6, 5]])
        for pairs in (None, [[1, 3], [2, 4]]):  # list pairs, as JSON gives them
            spec = hash_spec_for_space(space, pairs=pairs)
            for n in range(paths.shape[1] + 1):
                rows = content_summary_rows(paths[:, :n], spec)
                assert rows.shape == (len(paths), spec.m_hashes * len(spec.pairs))
                for path, row in zip(paths.tolist(), rows.tolist()):
                    expect = []
                    for j, (px, py) in enumerate(spec.pairs):
                        expect += (hash_rows(spec, j, path[px - 1], path[py - 1])
                                   if max(px, py) <= n else [spec.null_row] * spec.m_hashes)
                    assert row == expect

    def test_simultaneous_collision_rate_is_bloom_small(self):
        # frequency of two random DISTINCT pairs sharing all 3 hash rows
        spec, _ = self.spec_and_table(pair_sizes=(101,))
        rng = np.random.default_rng(1)
        n = 20_000
        a = rng.integers(0, 10_000, size=(n, 2))
        b = rng.integers(0, 10_000, size=(n, 2))
        collisions = comparisons = 0
        for (x1, y1), (x2, y2) in zip(a.tolist(), b.tolist()):
            if (x1, y1) == (x2, y2):
                continue
            comparisons += 1
            if hash_rows(spec, 0, x1, y1) == hash_rows(spec, 0, x2, y2):
                collisions += 1
        assert collisions / comparisons <= 2.0 / 101

    def test_default_spec_sizes_per_pair(self):
        corp = generate_corpus(SynthConfig(n_items=50, seed=0))
        space = SequenceSpace(attr_chain=("l2",), attr_vocabs=corp.attr_vocabs,
                              sid_sizes=(8, 8))
        spec = hash_spec_for_space(space, d_hash=4)
        for (x, y), size in zip(spec.pairs, spec.pair_sizes):
            expected = hash_table_size(
                [space.step_vocab_size(x), space.step_vocab_size(y)]
            )
            assert size == expected
        assert spec.table_rows == max(spec.pair_sizes) + 1
