"""Trie-constrained beam search over attribute+SID token paths.

The trie contains exactly the decoded paths of the corpus, so beam
expansion can never emit a token combination that resolves to no item.
Ranking is by cumulative log-probability with lexicographic path
tie-breaks for determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class DecoderError(ValueError):
    pass


@dataclass
class _TrieNode:
    children: dict = field(default_factory=dict)
    items: set = field(default_factory=set)  # non-empty only at leaves


class PathTrie:
    """Layered prefix tree mapping full token paths to item-id sets."""

    def __init__(self, n_steps: int):
        self.n_steps = n_steps
        self.root = _TrieNode()
        self.n_paths = 0
        self.total_items = 0

    def insert(self, path, item_id: int):
        path = tuple(path)
        if len(path) != self.n_steps:
            raise DecoderError(
                f"path length {len(path)} inconsistent with trie depth {self.n_steps}"
            )
        node = self.root
        for tok in path:
            node = node.children.setdefault(int(tok), _TrieNode())
        if not node.items:
            self.n_paths += 1
        node.items.add(item_id)
        self.total_items += 1

    def children(self, prefix) -> list:
        """Sorted valid continuations of a prefix (empty if prefix absent)."""
        node = self._node(prefix)
        return sorted(node.children) if node is not None else []

    def items_at(self, path) -> set:
        node = self._node(path)
        if node is None or not node.items:
            raise DecoderError(f"path {tuple(path)} not in trie")
        return set(node.items)

    def paths(self):
        """All full paths, lexicographic order."""
        out = []

        def walk(node, prefix):
            if len(prefix) == self.n_steps:
                out.append(prefix)
                return
            for tok in sorted(node.children):
                walk(node.children[tok], prefix + (tok,))

        walk(self.root, ())
        return out

    def _node(self, prefix):
        node = self.root
        for tok in prefix:
            node = node.children.get(int(tok))
            if node is None:
                return None
        return node


def build_trie(sequences_by_item: dict) -> PathTrie:
    """Trie over item paths; SID collisions accumulate in leaf item sets."""
    if not sequences_by_item:
        raise DecoderError("no sequences to index")
    lengths = {len(p) for p in sequences_by_item.values()}
    if len(lengths) != 1:
        raise DecoderError(f"inconsistent sequence lengths {sorted(lengths)}")
    trie = PathTrie(n_steps=lengths.pop())
    for item_id in sorted(sequences_by_item):
        trie.insert(sequences_by_item[item_id], item_id)
    return trie


@dataclass(frozen=True)
class Candidate:
    path: tuple
    logprob: float
    item_ids: tuple


def beam_search(model, trie: PathTrie, beam_width: int, top_k: int) -> list:
    """Width-limited exact search over trie-valid paths.

    ``model.step_logprobs(prefixes)`` takes the live beams' prefixes as a
    (B, n) integer array and returns a (B, V) array: row b holds the
    log-probabilities of prefix b's next token over the vocabulary of
    step n+1.  Returns min(top_k, #paths) candidates ranked by cumulative
    log-probability, ties broken by lexicographic token path.
    """
    if top_k < 1 or beam_width < top_k:
        raise DecoderError("need beam_width >= top_k >= 1")
    if not trie.root.children:
        raise DecoderError("empty trie")

    # live beams in lexicographic path order, so that expanding them in
    # order lists the expanded paths in lexicographic order too
    paths, scores = [()], np.zeros(1)
    for step in range(1, trie.n_steps + 1):
        step_lp = model.step_logprobs(np.array(paths, dtype=np.int64).reshape(len(paths), step - 1))
        children = [trie.children(path) for path in paths]
        parent = np.repeat(np.arange(len(paths)), [len(c) for c in children])
        toks = np.fromiter(itertools.chain.from_iterable(children), dtype=np.int64,
                           count=len(parent))
        if toks.max() >= step_lp.shape[1]:
            raise DecoderError(
                f"trie token {toks.max()} outside scorer vocabulary at step {step}"
            )
        expanded = scores[parent] + step_lp[parent, toks]
        # a stable sort keeps lexicographic order among equal log-probs
        keep = np.sort(np.argsort(-expanded, kind="stable")[:beam_width])
        paths = [paths[p] + (t,) for p, t in zip(parent[keep].tolist(), toks[keep].tolist())]
        scores = expanded[keep]

    ranked = np.argsort(-scores, kind="stable")[:top_k].tolist()
    return [
        Candidate(path=paths[i], logprob=float(scores[i]),
                  item_ids=tuple(sorted(trie.items_at(paths[i]))))
        for i in ranked
    ]
