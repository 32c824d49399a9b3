"""Synthetic long-tail item corpora and request-grouped interaction logs.

Items are drawn from Gaussian blobs with Zipf-distributed exposure
weights and a three-level category taxonomy (l1 > l2 > l3) whose
correlation with the blob structure is controlled by ``attr_correlation``.
Interaction logs sample impressions proportionally to exposure weight and
assign click/purchase levels from a per-user preference model.

All randomness flows through ``numpy.random.default_rng`` seeded from the
config, so every artifact is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

SCENES = ("main_feed", "search", "similar_items", "flash_sale")
OBJECTIVES = ("click", "purchase", "cart", "cross_border")

ATTR_FIELDS = ("l1", "l2", "l3", "seller", "brand")

# behavioral engagement levels attached to interaction events
EXPOSURE = 0
CLICK = 1
PURCHASE = 2


class CorpusFormatError(ValueError):
    """A persisted artifact does not match its documented schema."""


@dataclass
class Item:
    item_id: int
    embedding: np.ndarray
    exposure_weight: int
    attrs: dict
    gmv: float

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.item_id < 0:
            raise ValueError(f"item_id must be non-negative, got {self.item_id}")
        if self.exposure_weight <= 0:
            raise ValueError(f"exposure_weight must be > 0 for item {self.item_id}")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError(f"non-finite embedding for item {self.item_id}")
        if self.gmv < 0:
            raise ValueError(f"gmv must be non-negative for item {self.item_id}")
        missing = [f for f in ATTR_FIELDS if f not in self.attrs]
        if missing:
            raise ValueError(f"item {self.item_id} missing attrs {missing}")

    def __eq__(self, other):
        if not isinstance(other, Item):
            return NotImplemented
        return (
            self.item_id == other.item_id
            and np.array_equal(self.embedding, other.embedding)
            and self.exposure_weight == other.exposure_weight
            and self.attrs == other.attrs
            and self.gmv == other.gmv
        )


@dataclass
class ItemCorpus:
    items: list
    d_emb: int
    attr_vocabs: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ids = [it.item_id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item_ids in corpus")
        for it in self.items:
            if it.embedding.shape != (self.d_emb,):
                raise ValueError(
                    f"item {it.item_id} embedding has shape {it.embedding.shape}, "
                    f"expected ({self.d_emb},)"
                )
        self._check_taxonomy()
        if not self.attr_vocabs:
            self.attr_vocabs = build_attr_vocabs(self.items)

    def _check_taxonomy(self):
        # l3 -> l2 and l2 -> l1 must be functions
        l3_to_l2, l2_to_l1 = {}, {}
        for it in self.items:
            a = it.attrs
            if l3_to_l2.setdefault(a["l3"], a["l2"]) != a["l2"]:
                raise ValueError(f"l3 {a['l3']!r} maps to more than one l2")
            if l2_to_l1.setdefault(a["l2"], a["l1"]) != a["l1"]:
                raise ValueError(f"l2 {a['l2']!r} maps to more than one l1")

    def __len__(self):
        return len(self.items)

    def embeddings(self) -> np.ndarray:
        """(N, d_emb) matrix in item order."""
        return np.array([it.embedding for it in self.items])

    def weights(self) -> np.ndarray:
        return np.array([it.exposure_weight for it in self.items], dtype=np.float64)

    def by_id(self) -> dict:
        return {it.item_id: it for it in self.items}


def build_attr_vocabs(items) -> dict:
    """Per-field identifier -> index tables, sorted for determinism."""
    vocabs = {}
    for f in ATTR_FIELDS:
        values = sorted({it.attrs[f] for it in items})
        vocabs[f] = {v: i for i, v in enumerate(values)}
    return vocabs


@dataclass
class Interaction:
    request_id: str
    user_id: str
    scene: str
    objective: str
    events: list  # of dicts {item_id, level, exposure_rank}
    reward_metrics: dict

    def __post_init__(self):
        if self.scene not in SCENES or self.objective not in OBJECTIVES:
            raise ValueError(f"request {self.request_id}: unknown task "
                             f"{self.objective!r}:{self.scene!r}")
        ranks = [e["exposure_rank"] for e in self.events]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"request {self.request_id}: duplicate exposure_ranks")
        for e in self.events:
            if e["level"] not in (EXPOSURE, CLICK, PURCHASE):
                raise ValueError(f"request {self.request_id}: bad level {e['level']}")
            if e["exposure_rank"] < 1:
                raise ValueError(f"request {self.request_id}: exposure_rank must be >= 1")


@dataclass
class InteractionLog:
    interactions: list

    def __len__(self):
        return len(self.interactions)

    def __iter__(self):
        return iter(self.interactions)


@dataclass
class SynthConfig:
    n_items: int = 1000
    d_emb: int = 16
    n_clusters_true: int = 8
    zipf_exponent: float = 1.1
    attr_correlation: float = 0.9
    n_requests: int = 500
    events_per_request: int = 4
    seed: int = 0
    n_users: int | None = None  # derived from n_requests when None
    # exposure-vs-semantics coupling: production traffic concentrates on a
    # few tight semantic regions, so heavy weights can be steered into the
    # first `popular_blobs` blobs (0 = weights independent of position)
    popularity_concentration: float = 0.0
    popular_blobs: int = 1
    popular_blob_scale: float = 1.0  # stddev multiplier for popular blobs

    def __post_init__(self):
        for name in ("n_items", "d_emb", "n_clusters_true", "n_requests", "events_per_request"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")
        if not 0.0 <= self.attr_correlation <= 1.0:
            raise ValueError("attr_correlation must lie in [0, 1]")
        if self.n_users is not None and self.n_users <= 0:
            raise ValueError("n_users must be positive when given")
        if not 0.0 <= self.popularity_concentration <= 1.0:
            raise ValueError("popularity_concentration must lie in [0, 1]")
        if not 1 <= self.popular_blobs <= self.n_clusters_true:
            raise ValueError("popular_blobs must lie in [1, n_clusters_true]")
        if self.popular_blob_scale <= 0:
            raise ValueError("popular_blob_scale must be > 0")


def zipf_integer_weights(rng, n_items: int, exponent: float) -> np.ndarray:
    """Draw weights from a bounded Zipf law on [1, n_items], rounded up to ints.

    Inverse-CDF sampling of the density t^-exponent on [1, n_items]; works
    for any exponent > 0 and guarantees every weight >= 1.
    """
    u = rng.random(n_items)
    n = float(n_items)
    s = float(exponent)
    if n_items == 1:
        return np.ones(1, dtype=np.int64)
    if abs(s - 1.0) < 1e-12:
        x = n**u
    else:
        x = (1.0 + u * (n ** (1.0 - s) - 1.0)) ** (1.0 / (1.0 - s))
    return np.ceil(x).astype(np.int64)


def _noisy_blob_attr(rng, blob: np.ndarray, n_values: int, rho: float) -> np.ndarray:
    """Attribute index equal to the blob index with prob rho, else uniform."""
    keep = rng.random(blob.shape[0]) < rho
    random_vals = rng.integers(0, n_values, size=blob.shape[0])
    return np.where(keep, blob % n_values, random_vals)


def generate_corpus(cfg: SynthConfig) -> ItemCorpus:
    """Gaussian-blob embeddings, Zipf exposure weights, blob-correlated attrs.

    With ``popularity_concentration`` > 0 the heaviest weights are steered
    into the first ``popular_blobs`` blobs (the marginal weight
    distribution is unchanged, only its allocation over items).
    """
    rng = np.random.default_rng([cfg.seed, 0])
    n, d, b = cfg.n_items, cfg.d_emb, cfg.n_clusters_true

    centers = rng.normal(0.0, 4.0, size=(b, d))
    blob = rng.integers(0, b, size=n)
    sigma = np.where(blob < cfg.popular_blobs, cfg.popular_blob_scale, 1.0)
    emb = centers[blob] + rng.normal(0.0, 1.0, size=(n, d)) * sigma[:, None]

    l3 = _noisy_blob_attr(rng, blob, b, cfg.attr_correlation)
    seller = _noisy_blob_attr(rng, blob, b, cfg.attr_correlation)
    brand = _noisy_blob_attr(rng, blob, b, cfg.attr_correlation)
    l2 = l3 // 2
    l1 = l2 // 2

    weights = zipf_integer_weights(rng, n, cfg.zipf_exponent)
    if cfg.popularity_concentration > 0.0:
        # rank items by a popularity-biased score and hand out the sorted
        # weights in that order; a permutation, so the marginal stays Zipf
        score = rng.random(n) + cfg.popularity_concentration * (blob < cfg.popular_blobs)
        order = np.argsort(-score, kind="stable")
        reallocated = np.empty(n, dtype=np.int64)
        reallocated[order] = np.sort(weights)[::-1]
        weights = reallocated
    gmv = rng.lognormal(mean=1.0, sigma=1.0, size=n)

    items = [
        Item(
            item_id=i,
            embedding=emb[i],
            exposure_weight=int(weights[i]),
            attrs={
                "l1": f"L1_{l1[i]}",
                "l2": f"L2_{l2[i]}",
                "l3": f"L3_{l3[i]}",
                "seller": f"S_{seller[i]}",
                "brand": f"B_{brand[i]}",
            },
            gmv=float(gmv[i]),
        )
        for i in range(n)
    ]
    return ItemCorpus(items=items, d_emb=d)


def generate_interactions(corpus: ItemCorpus, cfg: SynthConfig) -> InteractionLog:
    """Weight-proportional impressions with a per-user l2-preference level model."""
    if len(corpus) == 0:
        raise ValueError("corpus must be non-empty")
    rng = np.random.default_rng([cfg.seed, 1])
    n_items = len(corpus)
    items = corpus.items
    w = corpus.weights()
    p = w / w.sum()

    n_users = cfg.n_users if cfg.n_users is not None else max(1, cfg.n_requests // 8)
    l2_values = sorted({it.attrs["l2"] for it in items})
    preferred_l2 = rng.integers(0, len(l2_values), size=n_users)

    interactions = []
    for r in range(cfg.n_requests):
        uid = int(rng.integers(0, n_users))
        scene = SCENES[int(rng.integers(0, len(SCENES)))]
        objective = OBJECTIVES[int(rng.integers(0, len(OBJECTIVES)))]
        k = cfg.events_per_request
        replace = n_items < k
        chosen = rng.choice(n_items, size=k, replace=replace, p=p)

        pref = l2_values[preferred_l2[uid]]
        events, gmv_total, watch_total = [], 0.0, 0.0
        for rank, idx in enumerate(chosen, start=1):
            it = items[int(idx)]
            is_pref = it.attrs["l2"] == pref
            clicked = rng.random() < (0.12 + 0.5 * is_pref)
            level = EXPOSURE
            if clicked:
                level = CLICK
                watch_total += float(rng.exponential(30.0))
                if rng.random() < (0.25 + 0.25 * is_pref):
                    level = PURCHASE
                    gmv_total += it.gmv
            events.append({"item_id": it.item_id, "level": level, "exposure_rank": rank})
        interactions.append(
            Interaction(
                request_id=f"r{r:06d}",
                user_id=f"u{uid:04d}",
                scene=scene,
                objective=objective,
                events=events,
                reward_metrics={"gmv": gmv_total, "watch_time": watch_total},
            )
        )
    return InteractionLog(interactions)


# ----------------------------------------------------------------------
# persistence: JSON-lines artifacts (greppable, diffable)
# ----------------------------------------------------------------------

_ITEM_FIELDS = {"item_id", "embedding", "exposure_weight", "attrs", "gmv"}
_INTERACTION_FIELDS = {"request_id", "user_id", "scene", "objective", "events", "reward_metrics"}
_EVENT_FIELDS = {"item_id", "level", "exposure_rank"}

_JSON_KINDS = {"integer": ((int,), "an integer"), "number": ((int, float), "a finite number"),
               "string": ((str,), "a string"), "object": ((dict,), "an object")}


def expect(kind: str, name: str, value):
    """``value`` if it is a JSON ``kind``: "integer", "string", "object" or a
    finite "number", never a boolean; otherwise ``ValueError`` naming ``name``."""
    types, phrase = _JSON_KINDS[kind]
    if type(value) not in types or (kind == "number" and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")
    return value


def _create(path):
    """``path`` opened for writing, its directory made first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8")


def write_json(path, doc: dict):
    """The one writer of a JSON document: ``doc`` with sorted keys."""
    with _create(path) as fh:
        json.dump(doc, fh, sort_keys=True)


def write_jsonl(path, records, meta: dict | None = None):
    """One ``json.dumps(record)`` line per record; ``meta``, when given, goes
    to the ``<path>.meta.json`` sidecar."""
    with _create(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    if meta is not None:
        write_json(str(path) + ".meta.json", meta)


def _parse(text: str, where: str, whole_file: bool) -> dict:
    """The JSON object ``text``; malformed JSON (an over-long integer literal
    included) or another value raises ``CorpusFormatError`` naming ``where``."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        at = f" at line {exc.lineno}" if whole_file and hasattr(exc, "lineno") else ""
        raise CorpusFormatError(
            f"{where}: malformed JSON{at} ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: expected a JSON object")
    return obj


def read_jsonl(path):
    """Yield ("<path>: line N", object) for each non-blank line of ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield f"{path}: line {lineno}", _parse(line, f"{path}: line {lineno}", False)


def check_fields(obj: dict, fields: set, what: str):
    """Raise ``CorpusFormatError`` unless the keys of ``obj`` are exactly ``fields``."""
    for wording, keys in (("unknown", set(obj) - fields), ("missing", fields - set(obj))):
        if keys:
            raise CorpusFormatError(f"{wording} {what} field(s) {sorted(keys)}")


def expect_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array if it is a rectangular nest of finite numbers
    (no booleans, strings or nulls), in one vectorized pass; else ``ValueError``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a rectangular array of finite numbers")
    return arr.astype(np.float64, copy=False)


def _checked(where: str, obj: dict, fields: set, what: str, build, reason="{}"):
    """``build(obj)`` once the keys of ``obj`` are exactly ``fields``; a failure
    raises ``CorpusFormatError`` naming ``where``, and a failure other than a
    ``CorpusFormatError`` is formatted into ``reason``."""
    try:
        check_fields(obj, fields, what)
        return build(obj)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{where}: " + reason.format(exc)) from exc


def read_records(path, what: str, fields: set, build, unique: str | None = None) -> list:
    """``build(obj)`` for each line of ``path``; keys other than ``fields``, a
    ``KeyError``, ``TypeError`` or ``ValueError`` from ``build``, or a repeated
    ``unique`` field raises ``CorpusFormatError`` naming the file and line."""
    out, seen = [], set()
    for where, obj in read_jsonl(path):
        out.append(_checked(where, obj, fields, what, build))
        if unique is not None and obj[unique] in seen:
            raise CorpusFormatError(f"{where}: repeated {unique} {obj[unique]}")
        seen.add(obj.get(unique))
    return out


def read_json_object(path) -> dict:
    """The JSON object that is the whole of ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read(), str(path), True)


def read_document(path, what: str, fields: set, build):
    """``build(doc)`` for the JSON object ``doc`` that is ``path``, checked as a
    line of :func:`read_records`; a failure of ``build`` other than a
    ``CorpusFormatError`` reads ``<path>: malformed <what> (<reason>)``."""
    return _checked(str(path), read_json_object(path), fields, what, build,
                    f"malformed {what} ({{}})")


def save_items(corpus: ItemCorpus, path, meta: dict | None = None):
    write_jsonl(path, ({**vars(it), "embedding": it.embedding.tolist()} for it in corpus.items),
                meta)


def _item(obj) -> Item:
    return Item(
        item_id=expect("integer", "item_id", obj["item_id"]),
        embedding=[expect("number", "embedding value", v) for v in obj["embedding"]],
        exposure_weight=expect("integer", "exposure_weight", obj["exposure_weight"]),
        attrs={f: expect("string", f"attribute {f!r}", v)
               for f, v in expect("object", "attrs", obj["attrs"]).items()},
        gmv=expect("number", "gmv", obj["gmv"]),
    )


def load_items(path) -> ItemCorpus:
    """items.jsonl; a fault of the whole corpus (ids that do not number the
    items 0..N-1, an embedding of another width, a broken taxonomy) names the file."""
    items = read_records(path, "item", _ITEM_FIELDS, _item)
    outside = next((it.item_id for it in items if not 0 <= it.item_id < len(items)), None)
    if outside is not None:
        raise CorpusFormatError(f"{path}: item_id {outside} is outside 0..{len(items) - 1}; "
                                f"the ids must number the items")
    try:
        return ItemCorpus(items=items, d_emb=items[0].embedding.shape[0] if items else 0)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def save_interactions(log: InteractionLog, path, meta: dict | None = None):
    write_jsonl(path, map(vars, log), meta)


def _interaction(obj) -> Interaction:
    events = obj["events"]
    if not isinstance(events, list) or not all(isinstance(ev, dict) for ev in events):
        raise ValueError("events must be a list of objects")
    for ev in events:
        check_fields(ev, _EVENT_FIELDS, "event")
        for key, value in ev.items():
            expect("integer", f"event {key}", value)
    for name, value in expect("object", "reward_metrics", obj["reward_metrics"]).items():
        expect("number", f"reward metric {name!r}", value)
    for key in ("request_id", "user_id", "scene", "objective"):
        expect("string", key, obj[key])
    return Interaction(**obj)


def load_interactions(path) -> InteractionLog:
    return InteractionLog(read_records(path, "interaction", _INTERACTION_FIELDS, _interaction))
