"""Sequence space, task BOS, hash sizing, and content-summary tests."""

import numpy as np
import pytest

from sidforge.corpus import SynthConfig, generate_corpus
from sidforge.quantizer import SemanticId
from sidforge.tokenizer import (
    HashSpec,
    SequenceSpace,
    TaskContext,
    TokenizerError,
    build_sequence,
    content_summary_rows,
    hash_rows,
    hash_spec_for_space,
    hash_table_size,
    task_bos_token,
)


@pytest.fixture(scope="module")
def corpus_and_space():
    corp = generate_corpus(SynthConfig(n_items=200, n_clusters_true=8, seed=0))
    space = SequenceSpace(attr_chain=("l2", "l3"), attr_vocabs=corp.attr_vocabs,
                          sid_sizes=(16, 16, 16))
    return corp, space


class TestTaskBos:
    def test_same_context_same_token(self, corpus_and_space):
        _, space = corpus_and_space
        ctx = TaskContext("click", "main_feed")
        assert task_bos_token(ctx, space) == task_bos_token(ctx, space)

    def test_injective_over_cross_product(self, corpus_and_space):
        _, space = corpus_and_space
        tokens = {
            task_bos_token(TaskContext(o, s), space)
            for o in space.objectives for s in space.scenes
        }
        assert len(tokens) == len(space.objectives) * len(space.scenes)

    def test_objective_changes_token(self, corpus_and_space):
        _, space = corpus_and_space
        a = task_bos_token(TaskContext("purchase", "main_feed"), space)
        b = task_bos_token(TaskContext("click", "main_feed"), space)
        assert a != b

    def test_unregistered_errors(self, corpus_and_space):
        _, space = corpus_and_space
        with pytest.raises(TokenizerError):
            task_bos_token(TaskContext("bogus", "main_feed"), space)
        with pytest.raises(TokenizerError):
            task_bos_token(TaskContext("click", "bogus"), space)


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
        rows = content_summary_rows(np.full((2, 3), -1), spec)
        assert rows.shape == (2, spec.m_hashes)
        assert np.all(rows == spec.null_row)
        np.testing.assert_array_equal(table[rows[0]].reshape(-1),
                                      np.tile(table[spec.null_row], spec.m_hashes))

    def test_deterministic(self):
        spec, _ = self.spec_and_table()
        paths = np.array([[5, -1, 7]])
        np.testing.assert_array_equal(content_summary_rows(paths, spec),
                                      content_summary_rows(paths, spec))

    def test_hand_evaluated_rows(self):
        # pair (x=5, y=7), p1=31, p2=37, S=101:
        #   H1 = 5+7 = 12; H2 = 5*7 = 35; H3 = 31*5 + 37*7 = 414, 414 % 101 = 10
        spec, _ = self.spec_and_table()
        assert content_summary_rows(np.array([[5, -1, 7]]), spec).tolist() == [[12, 35, 10]]
        assert hash_rows(spec, 0, 5, 7) == [12, 35, 10]

    def test_output_dim_constant_across_prefix_lengths(self):
        spec, table = self.spec_and_table(pair_sizes=(101, 55), pairs=((1, 3), (2, 3)))
        paths = np.array([[-1, -1, -1], [4, -1, -1], [4, 9, -1], [4, 9, 2]])
        rows = content_summary_rows(paths, spec)
        assert table[rows].reshape(len(paths), -1).shape == (len(paths), spec.output_dim)
        assert np.all(rows[:3] == spec.null_row) and np.all(rows[3] != spec.null_row)

    def test_array_of_paths_matches_per_pair_hashes(self, corpus_and_space):
        _, space = corpus_and_space
        paths = np.array([[4, 9, -1, -1, -1], [4, 9, 2, 7, -1], [-1] * 5, [3, 8, 1, 6, 5]])
        for pairs in (None, [[1, 3], [2, 4]]):  # list pairs, as JSON gives them
            spec = hash_spec_for_space(space, pairs=pairs)
            rows = content_summary_rows(paths, spec)
            assert rows.shape == (len(paths), spec.m_hashes * len(spec.pairs))
            for path, row in zip(paths.tolist(), rows.tolist()):
                expect = []
                for j, (px, py) in enumerate(spec.pairs):
                    x, y = path[px - 1], path[py - 1]
                    expect += (hash_rows(spec, j, x, y) if min(x, y) >= 0
                               else [spec.null_row] * spec.m_hashes)
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
