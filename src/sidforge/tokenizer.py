"""Token sequences: task-conditioned BOS, attribute chain, semantic-ID codes.

A :class:`SequenceSpace` pins the per-position vocabularies of the
decoding path (m attribute steps followed by L code layers) plus the
(objective, scene) BOS registry, and assigns every token a global index
in one unified space so hash functions over token pairs are well defined
across heterogeneous vocabularies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .corpus import OBJECTIVES, SCENES, check_fields, expect


class TokenizerError(ValueError):
    pass


@dataclass
class SequenceSpace:
    """Per-position vocabularies for the m+L decoding steps.

    step t in 1..m are attribute positions (chain order), steps m+1..m+L
    are SID layers.  Global token indices: task tokens first, then each
    step's vocabulary in order.  ``step_vocab_sizes`` and ``step_offsets``,
    the vocabulary size and first global index of steps 1..n_steps, are
    int64 arrays derived from the fields.
    """

    attr_chain: tuple  # field names, e.g. ("l2", "l3")
    attr_vocabs: dict  # field -> {identifier: local index}
    sid_sizes: tuple  # K per layer
    objectives: tuple = OBJECTIVES
    scenes: tuple = SCENES

    def __post_init__(self):
        for f in self.attr_chain:
            if f not in self.attr_vocabs:
                raise TokenizerError(f"no vocabulary for attribute field {f!r}")
        sizes = [len(self.attr_vocabs[f]) for f in self.attr_chain] + list(self.sid_sizes)
        if min(self.sid_sizes, default=1) < 1 or sum(sizes) >= 2**31:  # before any int64 array
            raise TokenizerError(f"sid_sizes must be positive and all steps hold < 2**31 "
                                 f"tokens, got {list(self.sid_sizes)}")
        self.step_vocab_sizes = np.array(sizes, dtype=np.int64)
        self.step_offsets = (self.n_task_tokens + np.cumsum(self.step_vocab_sizes)
                             - self.step_vocab_sizes)

    @property
    def m(self) -> int:
        return len(self.attr_chain)

    @property
    def n_layers(self) -> int:
        return len(self.sid_sizes)

    @property
    def n_steps(self) -> int:
        return len(self.step_vocab_sizes)

    @property
    def n_task_tokens(self) -> int:
        return len(self.objectives) * len(self.scenes)

    def step_vocab_size(self, t: int) -> int:
        if not 1 <= t <= self.n_steps:
            raise TokenizerError(f"step {t} out of range 1..{self.n_steps}")
        return int(self.step_vocab_sizes[t - 1])

    def check_path(self, path):
        """Raise ``TokenizerError`` unless ``path`` holds one in-vocabulary token per step."""
        if len(path) != self.n_steps:
            raise TokenizerError(f"path has {len(path)} tokens, space expects {self.n_steps}")
        for t, (token, size) in enumerate(zip(path, self.step_vocab_sizes), start=1):
            if not 0 <= token < size:
                raise TokenizerError(f"token {token} out of range at step {t}")

    def step_name(self, t: int) -> str:
        if t <= self.m:
            return self.attr_chain[t - 1]
        return f"s{t - self.m - 1}"

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d) -> "SequenceSpace":
        """The inverse of :meth:`as_dict`: vocabularies number their values 0..n-1,
        tasks are :mod:`corpus`'s, and the constructor checks the SID sizes."""
        check_fields(expect("object", "space", d), {f.name for f in fields(cls)}, "space")
        vocabs = expect("object", "attr_vocabs", d["attr_vocabs"])
        for f, vocab in vocabs.items():
            indices = [expect("integer", f"{f} vocabulary index", i)
                       for i in expect("object", f"{f} vocabulary", vocab).values()]
            if sorted(indices) != [*range(len(vocab))]:
                raise ValueError(f"{f} vocabulary must number its values 0..{len(vocab) - 1}")
        if (tuple(d["objectives"]), tuple(d["scenes"])) != (OBJECTIVES, SCENES):
            raise ValueError(f"the task registry must be {list(OBJECTIVES)} x {list(SCENES)}")
        return cls(tuple(expect("string", "attr_chain field", f) for f in d["attr_chain"]),
                   vocabs, tuple(expect("integer", "sid size", k) for k in d["sid_sizes"]))


def task_bos_token(objective: str, scene: str, space: SequenceSpace) -> int:
    """Unique token per registered (objective, scene) pair."""
    if objective not in space.objectives:
        raise TokenizerError(f"unregistered objective {objective!r}")
    if scene not in space.scenes:
        raise TokenizerError(f"unregistered scene {scene!r}")
    return space.objectives.index(objective) * len(space.scenes) + space.scenes.index(scene)


def build_sequence(item, sid, space: SequenceSpace) -> tuple:
    """The decoded path: attribute tokens in chain order, then SID codes.

    The task BOS is not part of it; each sample attaches its own.
    """
    attrs = []
    for f in space.attr_chain:
        if f not in item.attrs:
            raise TokenizerError(f"item {item.item_id} has no attribute {f!r}")
        value = item.attrs[f]
        vocab = space.attr_vocabs[f]
        if value not in vocab:
            raise TokenizerError(f"attribute value {value!r} not in vocabulary for {f!r}")
        attrs.append(vocab[value])
    if len(sid.codes) != space.n_layers:
        raise TokenizerError(
            f"sid has {len(sid.codes)} layers, space expects {space.n_layers}"
        )
    for l, c in enumerate(sid.codes):
        if not 0 <= c < space.sid_sizes[l]:
            raise TokenizerError(f"sid code {c} out of range at layer {l}")
    return tuple(attrs) + tuple(sid.codes)


# ----------------------------------------------------------------------
# hash-based content summaries over decoded token pairs
# ----------------------------------------------------------------------

def _integer_root(x: int, k: int) -> int:
    """Exact floor(x ** (1/k)) by integer arithmetic, for x >= 1 and k >= 2."""
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def hash_table_size(vocab_sizes) -> int:
    """floor((prod V_i) ** (2 / (n+1))) for an n-way product, computed exactly.

    Evaluated as the integer (n+1)-th root of (prod V_i)^2 so the floor is
    never ambiguous regardless of magnitude.
    """
    sizes = [int(v) for v in vocab_sizes]
    if not sizes:
        raise ValueError("vocab_sizes must be non-empty")
    if any(v < 1 for v in sizes):
        raise ValueError("vocab sizes must be >= 1")
    prod = math.prod(sizes)
    return _integer_root(prod * prod, len(sizes) + 1)


@dataclass(frozen=True)
class HashSpec:
    """Pairwise token-combination hashing into a shared embedding table.

    ``pairs`` are (position_x, position_y) decoding steps (1-based); each
    pair hashes with the family H1=x+y, H2=x*y, H3=p1*x+p2*y modulo its
    own table size.  Row table_rows-1 is the reserved NULL row for pairs
    whose positions are not yet decoded.
    """

    pairs: tuple  # of (step_x, step_y)
    pair_sizes: tuple  # modulus per pair
    m_hashes: int = 3
    p1: int = 31
    p2: int = 37
    d_hash: int = 16

    def __post_init__(self):
        if not 1 <= self.m_hashes <= 3:
            raise ValueError("m_hashes must lie in 1..3 (fixed hash family)")
        if len(self.pairs) != len(self.pair_sizes):
            raise ValueError("need one table size per pair")
        if any(s < 1 for s in self.pair_sizes):
            raise ValueError("pair table sizes must be >= 1")
        if self.p1 == self.p2 or not (0 < self.p1 < 2**31 and 0 < self.p2 < 2**31):
            raise ValueError("p1 and p2 must differ and lie in 1..2**31 - 1")

    @property
    def table_rows(self) -> int:
        return max(self.pair_sizes) + 1

    @property
    def null_row(self) -> int:
        return self.table_rows - 1

    @property
    def output_dim(self) -> int:
        return self.m_hashes * len(self.pairs) * self.d_hash

    @cached_property
    def _pairs_within(self):
        """Entry n, for prefix lengths n up to the last pair position: the indices
        of the pairs whose two positions are within the first n steps, their
        0-based positions (P_n, 2) and their table sizes (P_n, 1).  Built once
        per spec."""
        pos = np.array(self.pairs, dtype=np.int64).reshape(-1, 2) - 1
        sizes = np.array(self.pair_sizes, dtype=np.int64)[:, None]
        return [(live, pos[live], sizes[live])
                for live in (np.flatnonzero(pos.max(axis=1) < n) for n in range(pos.max() + 2))]


DEFAULT_PAIR_LAYERS = (0, 1)  # SID layers crossed with each attribute position


def default_hash_pairs(space: SequenceSpace):
    """Cross every attribute position with the first two SID layers, plus (s0, s1)."""
    pairs = []
    for a in range(1, space.m + 1):
        for l in DEFAULT_PAIR_LAYERS:
            if l < space.n_layers:
                pairs.append((a, space.m + 1 + l))
    if space.n_layers >= 2:
        pairs.append((space.m + 1, space.m + 2))
    if not pairs:  # single-layer, no attributes: degenerate self-pair
        pairs.append((1, 1))
    return tuple(pairs)


def hash_spec_for_space(space: SequenceSpace, pairs=None, m_hashes=3, p1=31, p2=37,
                        d_hash=16) -> HashSpec:
    pairs = tuple(pairs) if pairs is not None else default_hash_pairs(space)
    sizes = tuple(
        hash_table_size([space.step_vocab_size(x), space.step_vocab_size(y)])
        for x, y in pairs
    )
    return HashSpec(pairs=pairs, pair_sizes=sizes, m_hashes=m_hashes, p1=p1, p2=p2,
                    d_hash=d_hash)


def _hash_family(spec: HashSpec, x, y) -> np.ndarray:
    """H1 = x+y, H2 = x*y, H3 = p1*x + p2*y (the first m_hashes), on a new last axis."""
    out = np.empty(np.shape(x) + (spec.m_hashes,), dtype=np.int64)
    np.add(x, y, out=out[..., 0])
    if spec.m_hashes > 1:
        np.multiply(x, y, out=out[..., 1])
    if spec.m_hashes > 2:
        np.add(spec.p1 * x, spec.p2 * y, out=out[..., 2])
    return out


def content_summary_rows(prefix_globals, spec: HashSpec) -> np.ndarray:
    """Hash-table rows of the content summaries of B partially decoded paths.

    Entry [b, t-1] of the (B, n) array ``prefix_globals`` is the global index
    of path b's token at step t; the steps past n are not decoded.  A pair
    with a position past n gets the NULL row for all its hashes without being
    hashed, so each of the (B, n_pairs * m_hashes) rows has the same width
    however much of the path is decoded.
    """
    b, n = prefix_globals.shape
    table = spec._pairs_within
    live, pos, sizes = table[min(n, len(table) - 1)]
    rows = np.full((b, len(spec.pairs), spec.m_hashes), spec.null_row, dtype=np.int64)
    if live.size:
        x, y = prefix_globals[:, pos[:, 0]], prefix_globals[:, pos[:, 1]]
        rows[:, live] = _hash_family(spec, x, y) % sizes
    return rows.reshape(b, -1)
