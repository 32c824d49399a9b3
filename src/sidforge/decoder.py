"""Trie-constrained beam search over attribute+SID token paths.

The trie contains exactly the decoded paths of the corpus, so beam
expansion can never emit a token combination that resolves to no item.
Ranking is by cumulative log-probability with lexicographic path
tie-breaks for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DecoderError(ValueError):
    pass


class PathTrie:
    """Prefix tables over full token paths of one length, built once.

    For each depth t in 0..n_steps, ``prefixes[t]`` is the lexicographically
    sorted (N_t, t) int64 array of the distinct length-t prefixes of the
    paths, and a node of depth t is a row index into it.  The children of
    node i of depth t < n_steps are the nodes ``child_offsets[t][i]`` up to
    ``child_offsets[t][i + 1]`` of depth t+1, in token order.
    ``path_items[i]`` is the sorted tuple of the item ids of full path i.
    """

    def __init__(self, prefixes: list, child_offsets: list, path_items: list):
        self.prefixes = prefixes
        self.child_offsets = child_offsets
        self.path_items = path_items
        self.n_steps = len(prefixes) - 1
        self.n_paths = len(path_items)

    def _node(self, prefix):
        """Node id of ``prefix`` (a tuple), or None where no path starts with it."""
        if len(prefix) > self.n_steps:
            return None
        table = self.prefixes[len(prefix)]
        lo, hi = 0, len(table)
        # rows sharing their first j tokens are sorted by token j
        for j, tok in enumerate(prefix):
            col = table[lo:hi, j]
            lo, hi = lo + col.searchsorted(tok, "left"), lo + col.searchsorted(tok, "right")
            if lo == hi:
                return None
        return lo

    def children(self, prefix) -> tuple:
        """Sorted valid continuations of a prefix (empty if prefix absent)."""
        prefix = tuple(prefix)
        i = self._node(prefix)
        if i is None or len(prefix) == self.n_steps:
            return ()
        return tuple(self.expand(len(prefix), np.array([i]))[2].tolist())

    def items_at(self, path) -> tuple:
        path = tuple(path)
        i = self._node(path) if len(path) == self.n_steps else None
        if i is None:
            raise DecoderError(f"path {path} not in trie")
        return self.path_items[i]

    def paths(self) -> list:
        """All full paths, lexicographic order."""
        return list(map(tuple, self.prefixes[self.n_steps].tolist()))

    def expand(self, depth: int, nodes):
        """All children of the ascending node ids ``nodes`` of ``depth``, in order:
        for each child, the index into ``nodes`` of its parent, its node id and
        its token."""
        offsets = self.child_offsets[depth]
        first = offsets[nodes]
        counts = offsets[nodes + 1] - first
        parent = np.arange(len(nodes)).repeat(counts)
        # the children of nodes[b] are the consecutive node ids from first[b] on
        child = np.arange(len(parent)) + (first - counts.cumsum() + counts).repeat(counts)
        return parent, child, self.prefixes[depth + 1][child, depth]


def _token_array(sequences_by_item: dict, n_steps: int) -> np.ndarray:
    """The (N, n_steps) int64 array of the paths, in mapping order.

    Raises ``DecoderError`` naming the item of the first token that is not
    an integer in 0..2**63-1: a float would be truncated onto another
    token, and a negative one would index the vocabulary from its end.
    """
    paths = list(sequences_by_item.values())
    tokens = np.array(paths)
    if tokens.dtype.kind == "i" and not (tokens < 0).any():
        return tokens.astype(np.int64, copy=False).reshape(len(paths), n_steps)
    for item_id, path in sequences_by_item.items():
        for tok in path:
            if not (isinstance(tok, (int, np.integer)) and 0 <= tok < 2**63):
                raise DecoderError(f"item {item_id} has token {tok!r} in path {tuple(path)}; "
                                   f"tokens must be integers >= 0")
    return np.array(paths, dtype=np.int64).reshape(len(paths), n_steps)


def build_trie(sequences_by_item: dict) -> PathTrie:
    """Prefix tables over item paths; SID collisions share one path's item tuple."""
    if not sequences_by_item:
        raise DecoderError("no sequences to index")
    lengths = {len(p) for p in sequences_by_item.values()}
    if len(lengths) != 1:
        raise DecoderError(f"inconsistent sequence lengths {sorted(lengths)}")
    n_steps = lengths.pop()
    tokens = _token_array(sequences_by_item, n_steps)
    ids = list(sequences_by_item)
    # (path, item id) order: the last key of lexsort is the first compared
    order = np.lexsort((np.array(ids), *tokens.T[::-1]))
    tokens = tokens[order]
    n = len(order)
    # starts[t]: the sorted rows whose first t tokens differ from the previous row's
    new = np.ones((n, n_steps), dtype=bool)
    np.logical_or.accumulate(tokens[1:] != tokens[:-1], axis=1, out=new[1:])
    starts = [np.zeros(1, dtype=np.intp)] + [np.flatnonzero(new[:, t]) for t in range(n_steps)]
    prefixes = [tokens[rows, :t] for t, rows in enumerate(starts)]
    # every row starting a node of depth t also starts one of depth t+1
    child_offsets = [np.append(np.searchsorted(starts[t + 1], starts[t]), len(starts[t + 1]))
                     for t in range(n_steps)]
    sorted_ids = [ids[i] for i in order.tolist()]
    bounds = np.append(starts[n_steps], n).tolist()
    return PathTrie(prefixes, child_offsets,
                    [tuple(sorted_ids[a:b]) for a, b in zip(bounds, bounds[1:])])


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

    # live beams as ascending node ids of one depth, which is lexicographic
    # path order, so that their children in order are in that order too
    nodes, scores = np.zeros(1, dtype=np.intp), np.zeros(1)
    for step in range(1, trie.n_steps + 1):
        step_lp = model.step_logprobs(trie.prefixes[step - 1].take(nodes, axis=0))
        parent, nodes, toks = trie.expand(step - 1, nodes)
        if toks.max() >= step_lp.shape[1]:
            raise DecoderError(
                f"trie token {toks.max()} outside scorer vocabulary at step {step}"
            )
        scores = scores[parent] + step_lp[parent, toks]
        if len(nodes) > beam_width:
            # a stable sort keeps lexicographic order among equal log-probs
            keep = (-scores).argsort(kind="stable")[:beam_width]
            keep.sort()
            nodes, scores = nodes[keep], scores[keep]

    ranked = (-scores).argsort(kind="stable")[:top_k]
    nodes = nodes[ranked].tolist()
    paths = trie.prefixes[trie.n_steps].take(nodes, axis=0).tolist()
    return [Candidate(tuple(path), score, trie.path_items[node])
            for path, score, node in zip(paths, scores[ranked].tolist(), nodes)]
