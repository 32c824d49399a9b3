"""Trie construction and beam-search correctness tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge.decoder import DecoderError, beam_search, build_trie
from sidforge.scorer import CountScorer, NeuralSequenceModel

from helpers import random_sample, tiny_contexts, tiny_params, token_paths


class RandomLogitModel:
    """Fixed random step distributions, independent of the prefix content."""

    def __init__(self, vocab_sizes, seed):
        rng = np.random.default_rng(seed)
        self.tables = {}
        self.vocab_sizes = vocab_sizes
        for t, v in enumerate(vocab_sizes):
            for prefix in itertools.product(*(range(k) for k in vocab_sizes[:t])):
                logits = rng.normal(size=v)
                self.tables[prefix] = logits - np.log(np.exp(logits).sum())

    def step_logprobs(self, prefix):
        if np.ndim(prefix) == 2:  # one row per prefix, as beam search asks
            return np.stack([self.tables[tuple(p)] for p in np.asarray(prefix).tolist()])
        return self.tables[tuple(prefix)]


@st.composite
def item_paths(draw):
    """item id -> token path, every path of one length over a small vocabulary."""
    n_steps, vocab = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    path = st.tuples(*[st.integers(0, vocab - 1)] * n_steps)
    return draw(st.dictionaries(st.integers(0, 50), path, min_size=1, max_size=20))


class TestBuildTrie:
    @given(item_paths(), st.lists(st.lists(st.integers(0, 5), max_size=4).map(tuple), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_prefix_table_matches_brute_force(self, seqs, probes):
        trie = build_trie(seqs)
        full = set(seqs.values())
        n = len(next(iter(full)))

        def next_tokens(prefix):
            t = len(prefix)
            return tuple(sorted({q[t] for q in full if t < n and q[:t] == prefix}))

        for prefix in {q[:t] for q in full for t in range(n + 1)} | set(probes):
            assert trie.children(prefix) == next_tokens(prefix)
        for q in full:
            assert trie.items_at(q) == tuple(sorted(i for i, r in seqs.items() if r == q))
        for absent in set(probes) - full:
            with pytest.raises(DecoderError):
                trie.items_at(absent)
        assert trie.paths() == sorted(full)
        assert (trie.n_paths, trie.n_steps) == (len(full), n)

    def test_single_item(self):
        trie = build_trie({7: (1, 2, 3)})
        assert trie.n_paths == 1
        assert trie.items_at((1, 2, 3)) == (7,)

    def test_colliding_items_share_leaf(self):
        trie = build_trie({1: (0, 1), 2: (0, 1)})
        assert trie.n_paths == 1
        assert trie.items_at((0, 1)) == (1, 2)

    def test_conservation_over_many_items(self):
        rng = np.random.default_rng(0)
        seqs = {i: tuple(int(x) for x in rng.integers(0, 4, size=3)) for i in range(1000)}
        trie = build_trie(seqs)
        assert trie.n_paths <= 1000
        assert sum(len(trie.items_at(p)) for p in trie.paths()) == 1000

    def test_inconsistent_lengths_error(self):
        with pytest.raises(DecoderError):
            build_trie({1: (0, 1), 2: (0, 1, 2)})


class TestBeamSearch:
    def test_deterministic_chain_probability_one(self):
        model = CountScorer([(0, 1, 2)] * 3, vocab_sizes=(3, 3, 3))
        trie = build_trie({5: (0, 1, 2)})
        out = beam_search(model, trie, beam_width=4, top_k=1)
        assert len(out) == 1
        assert out[0].path == (0, 1, 2)
        assert out[0].logprob == 0.0
        assert out[0].item_ids == (5,)

    def test_full_width_equals_exhaustive_enumeration(self):
        sizes = (3, 3, 3)
        model = RandomLogitModel(sizes, seed=3)
        seqs = {i: p for i, p in enumerate(itertools.product(*(range(s) for s in sizes)))}
        trie = build_trie(seqs)
        got = beam_search(model, trie, beam_width=27, top_k=27)

        oracle = []
        for path in trie.paths():
            lp = sum(float(model.step_logprobs(path[:t])[path[t]])
                     for t in range(3))
            oracle.append((path, lp))
        oracle.sort(key=lambda e: (-e[1], e[0]))
        assert [c.path for c in got] == [p for p, _ in oracle]
        for c, (_, lp) in zip(got, oracle):
            assert c.logprob == pytest.approx(lp, abs=1e-12)

    def test_no_path_outside_trie(self):
        sizes = (4, 4)
        model = RandomLogitModel(sizes, seed=5)
        rng = np.random.default_rng(1)
        seqs = {i: tuple(int(x) for x in rng.integers(0, 4, size=2)) for i in range(6)}
        trie = build_trie(seqs)
        valid = set(trie.paths())
        out = beam_search(model, trie, beam_width=8, top_k=8)
        assert all(c.path in valid for c in out)

    def test_candidates_distinct_and_sorted(self):
        sizes = (3, 3)
        model = RandomLogitModel(sizes, seed=7)
        seqs = {i: p for i, p in enumerate(itertools.product(range(3), range(3)))}
        trie = build_trie(seqs)
        out = beam_search(model, trie, beam_width=9, top_k=9)
        paths = [c.path for c in out]
        assert len(set(paths)) == len(paths)
        lps = [c.logprob for c in out]
        assert all(a >= b - 1e-12 for a, b in zip(lps, lps[1:]))

    def test_ties_break_lexicographically(self):
        # p(0, 0) = 1/4 * 3/4 and p(1, 0) = 3/4 * 1/4 tie exactly, though the
        # beam holding (1,) outranks the beam holding (0,) after step 1
        seqs = [(0, 0)] * 3 + [(0, 1)] + [(1, 0)] * 3 + [(1, 1)] * 9
        model = CountScorer(seqs, vocab_sizes=(2, 2))
        trie = build_trie(dict(enumerate(seqs)))
        out = beam_search(model, trie, beam_width=4, top_k=4)
        assert [c.path for c in out] == [(1, 1), (0, 0), (1, 0), (0, 1)]
        assert out[1].logprob == out[2].logprob

        siblings = CountScorer([(0, 2), (0, 1)], vocab_sizes=(1, 3))
        out = beam_search(siblings, build_trie({0: (0, 2), 1: (0, 1)}), beam_width=2, top_k=2)
        assert [c.path for c in out] == [(0, 1), (0, 2)]

    def test_top1_monotone_in_width(self):
        sizes = (4, 4, 4)
        model = RandomLogitModel(sizes, seed=9)
        seqs = {i: p for i, p in enumerate(itertools.product(*(range(s) for s in sizes)))}
        trie = build_trie(seqs)
        tops = [beam_search(model, trie, beam_width=b, top_k=1)[0].logprob
                for b in (1, 2, 4, 16, 64)]
        assert all(b >= a - 1e-12 for a, b in zip(tops, tops[1:]))

    @given(tiny_contexts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_width_neural_beam_equals_exhaustive_enumeration(self, context, data):
        params, behavior, bos = context
        paths = data.draw(st.lists(token_paths(params.space), min_size=1, max_size=12))
        trie = build_trie(dict(enumerate(paths)))
        model = NeuralSequenceModel(params, behavior, bos)
        got = beam_search(model, trie, beam_width=trie.n_paths, top_k=trie.n_paths)

        oracle = []
        for path in trie.paths():
            lp = sum(float(model.step_logprobs(path[:t])[path[t]]) for t in range(len(path)))
            oracle.append((path, lp))
        oracle.sort(key=lambda e: (-e[1], e[0]))
        assert [c.path for c in got] == [p for p, _ in oracle]
        for c, (path, lp) in zip(got, oracle):
            assert c.logprob == pytest.approx(lp, abs=1e-12)
            assert c.item_ids == tuple(sorted(trie.items_at(path)))

    def test_neural_model_drives_beam(self):
        rng = np.random.default_rng(17)
        params = tiny_params(rng)
        sample = random_sample(rng, params)

        seqs = {0: sample.tokens}
        trie = build_trie(seqs)
        model = NeuralSequenceModel(params, sample.behavior, sample.bos)
        out = beam_search(model, trie, beam_width=2, top_k=1)
        assert out[0].path == sample.tokens

    def test_errors(self):
        model = CountScorer([(0,)], vocab_sizes=(2,))
        trie = build_trie({0: (0,)})
        with pytest.raises(DecoderError):
            beam_search(model, trie, beam_width=1, top_k=2)
        with pytest.raises(DecoderError):
            build_trie({})
