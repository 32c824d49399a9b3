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

import dataclasses
import functools
import json
import math
import operator
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

SCENES = ("main_feed", "search", "similar_items", "flash_sale")
OBJECTIVES = ("click", "purchase", "cart", "cross_border")

ATTR_FIELDS = ("l1", "l2", "l3", "seller", "brand")
REWARD_METRICS = ("gmv", "watch_time")  # the keys of every request's reward_metrics

# behavioral engagement levels attached to interaction events
EXPOSURE = 0
CLICK = 1
PURCHASE = 2


class CorpusFormatError(ValueError):
    """A persisted artifact does not match its documented schema."""


def _sharing():
    """A new table ``share``: ``share(s)`` is the first string equal to ``s`` that
    it was given, so a value repeated over many records is held once."""
    table = {}
    return lambda s: table.setdefault(s, s)


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
        # a count that float64 holds exactly, so weights() and its sums do not overflow;
        # NaN fails both bounds, and :.80 cuts the repr of a huge int
        if not 0 < self.exposure_weight <= 2**53:
            raise ValueError(f"exposure_weight must be finite and in (0, 2**53] for item "
                             f"{self.item_id}, got {self.exposure_weight!r:.80}")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError(f"non-finite embedding for item {self.item_id}")
        if not 0 <= self.gmv < math.inf:
            raise ValueError(f"gmv must be finite and non-negative for item {self.item_id}, "
                             f"got {self.gmv}")
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
    """Items in item_id order, whose ids number them 0..N-1: ``items[i].item_id == i``,
    so an id is the row of every per-item column, whatever order the items came in."""

    items: list
    d_emb: int
    attr_vocabs: dict = field(init=False, compare=False)  # built from the items

    def __post_init__(self):
        n = len(self.items)
        outside = next((it.item_id for it in self.items if not 0 <= it.item_id < n), None)
        if outside is not None:
            raise ValueError(f"item_id {outside} is outside 0..{n - 1}; "
                             f"the ids must number the items")
        self.items = sorted(self.items, key=operator.attrgetter("item_id"))
        if any(it.item_id != i for i, it in enumerate(self.items)):
            raise ValueError("duplicate item_ids in corpus")
        for it in self.items:
            if it.embedding.shape != (self.d_emb,):
                raise ValueError(
                    f"item {it.item_id} embedding has shape {it.embedding.shape}, "
                    f"expected ({self.d_emb},)"
                )
        self._check_taxonomy()
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

    def weights(self) -> np.ndarray:
        return np.array([it.exposure_weight for it in self.items], dtype=np.float64)

    def require_every_item(self, ids, what):
        """Raise ValueError unless ``ids``, the items that have a ``what``, are those of
        the corpus: name the smallest one it lacks, else the smallest one ``ids`` lack."""
        ids, known = set(ids), set(range(len(self)))
        if ids - known:
            raise ValueError(f"item_id {min(ids - known)} has a {what} but is not in the corpus")
        if known - ids:
            raise ValueError(f"item_id {min(known - ids)} of the corpus has no {what}")


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
        if set(self.reward_metrics) != set(REWARD_METRICS):
            raise ValueError(f"request {self.request_id}: reward_metrics must have the keys "
                             f"{list(REWARD_METRICS)}, got {sorted(self.reward_metrics)}")
        ranks = [e["exposure_rank"] for e in self.events]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"request {self.request_id}: duplicate exposure_ranks")
        for e in self.events:
            if e["level"] not in (EXPOSURE, CLICK, PURCHASE):
                raise ValueError(f"request {self.request_id}: bad level {e['level']}")
            if e["exposure_rank"] < 1:
                raise ValueError(f"request {self.request_id}: exposure_rank must be >= 1")


_JSON_KINDS = {"integer": ((int,), "an integer"), "number": ((int, float), "a finite number"),
               "string": ((str,), "a string"), "object": ((dict,), "an object"),
               "boolean": ((bool,), "a boolean")}


def expect(kind: str, name: str, value, error=ValueError):
    """``value`` if it is a JSON ``kind``: "boolean", "integer", "string", "object" or
    a finite "number", a boolean being neither number; else ``error`` naming ``name``
    and the first 80 characters of the value."""
    allowed, phrase = _JSON_KINDS[kind]
    if type(value) not in allowed or (kind == "number" and not abs(value) <= sys.float_info.max):
        raise error(f"{name} must be {phrase}, got {value!r:.80}")
    return value


class ConfigError(ValueError):
    """A run-config value that does not fit its section; the message names the key."""


_HINT_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_type_hints = functools.cache(typing.get_type_hints)


def conform(hint, value, key: str):
    """``value`` if it fits the type ``hint`` (an int fits ``float``, arrays
    become tuples, a config section is built from a JSON object); otherwise
    ``ConfigError`` naming ``key``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # every union of a config is ``X | None``
        return None if value is None else conform(args[0], value, key)
    if origin is typing.Literal and value not in args:
        raise ConfigError(f"{key} must be one of {list(args)}, got {value!r}")
    if origin is tuple:
        size = "" if args[-1] is Ellipsis else f" of {len(args)} entries"
        if type(value) not in (list, tuple) or size and len(value) != len(args):
            raise ConfigError(f"{key} must be an array{size}, got {value!r}")
        hints = args if size else args[:1] * len(value)
        return tuple(conform(h, v, f"{key}[{i}]") for i, (h, v) in enumerate(zip(hints, value)))
    if origin is dict:
        return {conform(args[0], k, f"{key} key"): conform(args[1], v, f"{key}[{k!r}]")
                for k, v in expect("object", key, value, ConfigError).items()}
    if not dataclasses.is_dataclass(hint):
        return value if origin else expect(_HINT_KINDS[hint], key, value, ConfigError)
    if isinstance(value, hint):
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object")
    hints = _type_hints(hint)
    if set(value) - set(hints):
        raise ConfigError(f"{key}: unknown key(s) {sorted(set(value) - set(hints))}")
    # the section checks its own values; nested sections are built first
    return hint(**{k: conform(hints[k], v, f"{key}.{k}") if dataclasses.is_dataclass(hints[k])
                   else v for k, v in value.items()})


def config_section(name: str, *rules, **bounds):
    """Class decorator: a dataclass whose every construction (``dataclasses.replace``
    too) checks each field against its type hint and its bound, such as ">= 0 and < 1"
    (null passes the bound of an ``X | None`` field), then runs the cross-key ``rules``.
    A fault raises ``ConfigError`` naming ``<name>.<field>``, or ``<field>`` if no name."""
    def check(cfg):
        hints = _type_hints(type(cfg))
        for f in dataclasses.fields(cfg):
            key = f"{name}.{f.name}" if name else f.name
            value = conform(hints[f.name], getattr(cfg, f.name), key)
            bound = bounds.get(f.name)
            if bound and value is not None and not all(
                    _COMPARE[op](value, float(limit))
                    for op, limit in map(str.split, bound.split(" and "))):
                nullable = " or null" if type(None) in typing.get_args(hints[f.name]) else ""
                raise ConfigError(f"{key} must be {bound}{nullable}, got {value!r}")
            setattr(cfg, f.name, value)
        for rule in rules:
            rule(cfg)

    def section(cls):
        cls.__post_init__ = check
        return dataclass(cls)
    return section


def _popular_blobs_are_blobs(c):
    if c.popular_blobs > c.n_clusters_true:
        raise ConfigError(f"corpus.popular_blobs must be <= corpus.n_clusters_true = "
                          f"{c.n_clusters_true}, got {c.popular_blobs}")


@config_section("corpus", _popular_blobs_are_blobs, n_items=">= 1", d_emb=">= 1",
                n_clusters_true=">= 1", zipf_exponent="> 0", attr_correlation=">= 0 and <= 1",
                n_requests=">= 1", events_per_request=">= 1", seed=">= 0", n_users=">= 1",
                popularity_concentration=">= 0 and <= 1", popular_blobs=">= 1",
                popular_blob_scale="> 0")
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

    share = _sharing()
    items = [
        Item(
            item_id=i,
            embedding=emb[i],
            exposure_weight=int(weights[i]),
            attrs={
                "l1": share(f"L1_{l1[i]}"),
                "l2": share(f"L2_{l2[i]}"),
                "l3": share(f"L3_{l3[i]}"),
                "seller": share(f"S_{seller[i]}"),
                "brand": share(f"B_{brand[i]}"),
            },
            gmv=float(gmv[i]),
        )
        for i in range(n)
    ]
    return ItemCorpus(items=items, d_emb=d)


def generate_interactions(corpus: ItemCorpus, cfg: SynthConfig) -> list[Interaction]:
    """Weight-proportional impressions with a per-user l2-preference level model."""
    if len(corpus) == 0:
        raise ValueError("corpus must be non-empty")
    rng = np.random.default_rng([cfg.seed, 1])
    n_items = len(corpus)
    items = corpus.items
    w = corpus.weights()
    p = w / w.sum()

    n_users = cfg.n_users if cfg.n_users is not None else max(1, cfg.n_requests // 8)
    l2_values = list(corpus.attr_vocabs["l2"])
    preferred_l2 = rng.integers(0, len(l2_values), size=n_users)

    share = _sharing()
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
                user_id=share(f"u{uid:04d}"),
                scene=scene,
                objective=objective,
                events=events,
                reward_metrics={"gmv": gmv_total, "watch_time": watch_total},
            )
        )
    return interactions


# ----------------------------------------------------------------------
# persistence: JSON-lines artifacts (greppable, diffable)
# ----------------------------------------------------------------------

_ITEM_FIELDS = tuple(f.name for f in dataclasses.fields(Item))
_INTERACTION_FIELDS = tuple(f.name for f in dataclasses.fields(Interaction))
_EVENT_FIELDS = {"item_id", "level", "exposure_rank"}

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


def _checked(where: str, obj: dict, fields: set | None, what: str, build, reason="{}"):
    """``build(obj)`` once the keys of ``obj`` are exactly ``fields`` (None: the
    builder checks them); a failure raises ``CorpusFormatError`` naming ``where``,
    and a failure other than a ``CorpusFormatError`` is formatted into ``reason``."""
    try:
        if fields is not None:
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


def read_document(path, what: str, fields: set | None, build):
    """``build(doc)`` for the JSON object ``doc`` that is ``path``, checked as a
    line of :func:`read_records`; a failure of ``build`` other than a
    ``CorpusFormatError`` reads ``<path>: malformed <what> (<reason>)``."""
    return _checked(str(path), read_json_object(path), fields, what, build,
                    f"malformed {what} ({{}})")


def _record(obj, names) -> dict:
    """The fields ``names`` of ``obj``, in that order; unlike ``vars(obj)``, it
    gives a dataclass instance no ``__dict__``."""
    return {name: getattr(obj, name) for name in names}


def save_items(corpus: ItemCorpus, path, meta: dict | None = None):
    write_jsonl(path, ({**_record(it, _ITEM_FIELDS), "embedding": it.embedding.tolist()}
                       for it in corpus.items), meta)


def _item(obj, share) -> Item:
    return Item(
        item_id=expect("integer", "item_id", obj["item_id"]),
        embedding=[expect("number", "embedding value", v) for v in obj["embedding"]],
        exposure_weight=expect("integer", "exposure_weight", obj["exposure_weight"]),
        attrs={share(f): share(expect("string", f"attribute {f!r}", v))
               for f, v in expect("object", "attrs", obj["attrs"]).items()},
        gmv=expect("number", "gmv", obj["gmv"]),
    )


def load_items(path) -> ItemCorpus:
    """items.jsonl; a fault of the whole corpus (ids that do not number the
    items 0..N-1, an embedding of another width, a broken taxonomy) names the file.
    Items with equal attribute values share one string per value."""
    share = _sharing()
    items = read_records(path, "item", set(_ITEM_FIELDS), lambda obj: _item(obj, share))
    try:
        return ItemCorpus(items=items, d_emb=items[0].embedding.shape[0] if items else 0)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def save_interactions(log, path, meta: dict | None = None):
    write_jsonl(path, (_record(r, _INTERACTION_FIELDS) for r in log), meta)


def _interaction(obj, share) -> Interaction:
    events = obj["events"]
    if not isinstance(events, list) or not all(isinstance(ev, dict) for ev in events):
        raise ValueError("events must be a list of objects")
    for ev in events:
        check_fields(ev, _EVENT_FIELDS, "event")
        for key, value in ev.items():
            expect("integer", f"event {key}", value)
    for name, value in expect("object", "reward_metrics", obj["reward_metrics"]).items():
        expect("number", f"reward metric {name!r}", value)
    expect("string", "request_id", obj["request_id"])
    for key in ("user_id", "scene", "objective"):
        obj[key] = share(expect("string", key, obj[key]))
    return Interaction(**obj)


def load_interactions(path) -> list[Interaction]:
    """interactions.jsonl, one line per request_id; requests with equal user ids,
    scenes or objectives share one string per value."""
    share = _sharing()
    return read_records(path, "interaction", set(_INTERACTION_FIELDS),
                        lambda obj: _interaction(obj, share), unique="request_id")
