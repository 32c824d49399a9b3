"""Trie-constrained beam search over attribute+SID token paths.

The trie contains exactly the decoded paths of the corpus, so beam
expansion can never emit a token combination that resolves to no item.
Ranking is by cumulative log-probability with lexicographic path
tie-breaks for determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class DecoderError(ValueError):
    pass


class PathTrie:
    """Prefix table over full token paths of one length, built once.

    ``_children`` maps every prefix of a path, the empty one included, to
    the sorted tuple of its next tokens; ``_items`` maps every full path,
    in lexicographic order, to the sorted tuple of its item ids.
    """

    def __init__(self, n_steps: int, children: dict, items: dict):
        self.n_steps = n_steps
        self.n_paths = len(items)
        self._children = children
        self._items = items

    def children(self, prefix) -> tuple:
        """Sorted valid continuations of a prefix (empty if prefix absent)."""
        return self._children.get(tuple(prefix), ())

    def items_at(self, path) -> tuple:
        try:
            return self._items[tuple(path)]
        except KeyError:
            raise DecoderError(f"path {tuple(path)} not in trie") from None

    def paths(self) -> list:
        """All full paths, lexicographic order."""
        return list(self._items)


def build_trie(sequences_by_item: dict) -> PathTrie:
    """Prefix table over item paths; SID collisions share one path's item tuple."""
    if not sequences_by_item:
        raise DecoderError("no sequences to index")
    lengths = {len(p) for p in sequences_by_item.values()}
    if len(lengths) != 1:
        raise DecoderError(f"inconsistent sequence lengths {sorted(lengths)}")
    n_steps = lengths.pop()
    # paths sharing a prefix are adjacent in sorted order and list its next
    # tokens in ascending order, so a token is new unless it repeats the last
    children, items = {}, {}
    for path, item_id in sorted((tuple(map(int, p)), i) for i, p in sequences_by_item.items()):
        for t in range(n_steps):
            nxt = children.setdefault(path[:t], [])
            if not nxt or nxt[-1] != path[t]:
                nxt.append(path[t])
        items.setdefault(path, []).append(item_id)
    return PathTrie(n_steps, {p: tuple(toks) for p, toks in children.items()},
                    {p: tuple(ids) for p, ids in items.items()})


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
                  item_ids=trie.items_at(paths[i]))
        for i in ranked
    ]
