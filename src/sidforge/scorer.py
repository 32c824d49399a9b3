"""Small trainable autoregressive scorer over attribute+SID token paths.

Forward path per decoding step t: a gated single-layer cross-attention
over the user's behavior sequence produces a context vector q_t; the rank
head for step t is an affine map over x_t = [q_t | recent-prefix token
embeddings | hashed content summary | mean-pooled behavior embedding]
followed by a softmax over that step's vocabulary.

Training and beam search share one step: :func:`_attend` over (C contexts,
S queries, d) arrays, C = samples and S = steps in the forward, C = 1 and
S = live beams in :class:`NeuralSequenceModel`; then :func:`_head_logprobs`.

Attention projections and the gate are frozen at their random
initialization; embeddings, the shared hash table, and the per-step rank
heads train with analytic gradients (no autograd framework involved).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import (CorpusFormatError, check_fields, config_section, expect, read_document,
                     write_json)
from .tokenizer import HashSpec, SequenceSpace, content_summary_rows, hash_spec_for_space

FROZEN_TENSORS = ("attn_wq", "attn_wk", "attn_wv", "attn_gamma")


class ScorerError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@config_section("config", d_model=">= 1", prefix_window=">= 0", seed=">= 0")
class ScorerConfig:
    d_model: int = 32
    prefix_window: int = 4
    seed: int = 0


@dataclass
class Sample:
    """One teacher-forcing example: behavior context and a target path."""

    behavior: tuple  # behavior token ids, may be empty
    bos: int
    tokens: tuple  # m+L target tokens, local ids per step
    alpha: float = 1.0
    metrics: dict = field(default_factory=dict)
    level: int = 1
    target_item: int | None = None
    request_id: str | None = None


@dataclass
class ScorerParams:
    config: ScorerConfig
    space: SequenceSpace
    hash_spec: HashSpec
    n_behavior_tokens: int
    tensors: dict  # name -> np.ndarray

    @property
    def pad_token(self) -> int:
        return self.n_behavior_tokens

    @property
    def x_dim(self) -> int:
        d = self.config.d_model
        return d + self.config.prefix_window * d + self.hash_spec.output_dim + d

    def trainable_names(self) -> list:
        return [n for n in self.tensors if n not in FROZEN_TENSORS]


def _tensor_shapes(params: ScorerParams) -> dict:
    """name -> shape of every tensor of ``params``' layout, in init order."""
    space, hs, d = params.space, params.hash_spec, params.config.d_model
    vocab = space.step_vocab_sizes.tolist()
    shapes = {"emb_bos": (space.n_task_tokens, d)}
    shapes.update({f"emb_step_{t}": (v, d) for t, v in enumerate(vocab, start=1)})
    shapes["emb_behavior"] = (params.n_behavior_tokens + 1, d)
    shapes["emb_hash"] = (hs.table_rows, hs.d_hash)
    for t, v in enumerate(vocab, start=1):
        shapes[f"head_w_{t}"] = (v, params.x_dim)
        shapes[f"head_b_{t}"] = (v,)
    shapes.update({name: (d, d) for name in ("attn_wq", "attn_wk", "attn_wv")})
    shapes["attn_gamma"] = ()
    return shapes


def init_scorer(space: SequenceSpace, hash_spec: HashSpec, n_behavior_tokens: int,
                config: ScorerConfig) -> ScorerParams:
    """Symmetric-uniform init scaled by 1/sqrt(fan_in), the last axis; head
    biases start at 0 and the gate at 1."""
    rng = np.random.default_rng(config.seed)
    params = ScorerParams(config, space, hash_spec, n_behavior_tokens, {})
    for name, shape in _tensor_shapes(params).items():
        if name.startswith("head_b_"):
            params.tensors[name] = np.zeros(shape)
        elif name == "attn_gamma":
            params.tensors[name] = np.array(1.0)
        else:
            bound = 1.0 / math.sqrt(shape[-1])
            params.tensors[name] = rng.uniform(-bound, bound, size=shape)
    return params


def zero_grads(params: ScorerParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.tensors.items()}


@functools.cache
def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def _behavior_context(params: ScorerParams, behaviors):
    """Padded behavior batch: (tokens, mask, keys, values, h_agg).

    Row b holds behaviors[b], an empty one as the single pad token, padded
    with the pad token to the longest; ``mask`` is True on real positions.
    keys and values are (B, T, d); h_agg is each row's mean raw embedding.
    """
    pad = params.pad_token
    seqs = [tuple(b) if len(b) else (pad,) for b in behaviors]
    width = max(map(len, seqs), default=1)
    tokens = np.array([b + (pad,) * (width - len(b)) for b in seqs], dtype=np.int64)
    emb_table = params.tensors["emb_behavior"]
    bad = (tokens < 0) | (tokens >= emb_table.shape[0])
    if bad.any():
        raise ScorerError(f"unknown behavior token {tokens.ravel()[bad.argmax()]}")
    lengths = np.array([len(b) for b in seqs])
    mask = np.arange(width) < lengths[:, None]
    emb = emb_table[tokens]
    kv_in = (emb + sinusoidal_positions(width, params.config.d_model)).reshape(-1, emb.shape[2])
    keys = (kv_in @ params.tensors["attn_wk"]).reshape(emb.shape)
    values = (kv_in @ params.tensors["attn_wv"]).reshape(emb.shape)
    h_agg = emb.sum(axis=1, where=mask[:, :, None]) / lengths[:, None]
    return tokens, mask, keys, values, h_agg


def _attend(params: ScorerParams, q_emb, steps, keys, values, mask):
    """Gated cross-attention of S queries in each of C behavior contexts.

    q_emb (C, S, d) embeds each query's last decoded token, the BOS at step 1.
    ``steps`` holds each query's decoding step as an array, or one int for all.
    Returns q_in (C, S, d), attn (C, S, T), zero on padding, and gamma * attn @ values.
    """
    tensors, d = params.tensors, params.config.d_model
    q_in = (q_emb + sinusoidal_positions(params.space.n_steps, d)[steps - 1]) @ tensors["attn_wq"]
    scores = q_in @ keys.transpose(0, 2, 1)
    scores /= math.sqrt(d)
    if not mask.all():  # padding gets zero weight; a one-row context has none
        scores = np.where(mask[:, None, :], scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    return q_in, attn, float(tensors["attn_gamma"]) * (attn @ values)


def _check_tokens(space: SequenceSpace, tokens):
    """Raise unless every column j of the (B, n) array is a step j+1 token."""
    bad = (tokens < 0) | (tokens >= space.step_vocab_sizes[:tokens.shape[1]])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ScorerError(f"token {tokens[i, j]} out of range at step {j + 1}")


def _check_bos(space: SequenceSpace, bos):
    """Raise unless every token of the sequence ``bos`` is a task BOS of ``space``."""
    bad = [b for b in bos if not 0 <= b < space.n_task_tokens]
    if bad:
        raise ScorerError(f"task BOS {bad[0]} out of range 0..{space.n_task_tokens - 1}")


def _input_rows(params, prefixes, q, h_agg):
    """Scorer inputs x = [q | prefix window | content summary | h_agg] of step t.

    ``prefixes`` is the (B, t-1) array of the tokens decoded before step t.
    The prefix window holds the embeddings of each row's last prefix_window
    tokens, most recent first, zero padded.  Every entry of x is written
    once, as a copy of q, an embedding row, zero or h_agg.
    Returns x and the content-summary rows (hash-table row indices).
    """
    space, cfg, tensors = params.space, params.config, params.tensors
    d, w = cfg.d_model, cfg.prefix_window
    b, n = prefixes.shape
    x = np.empty((b, params.x_dim))
    x[:, :d] = q
    for slot in range(min(w, n)):  # slot 0 holds the last prefix token, of step n
        emb = tensors[f"emb_step_{n - slot}"]
        x[:, (1 + slot) * d:(2 + slot) * d] = emb.take(prefixes[:, n - 1 - slot], axis=0)
    c_start = (1 + w) * d
    x[:, (1 + min(w, n)) * d:c_start] = 0.0  # window slots beyond the prefix
    rows = content_summary_rows(prefixes + space.step_offsets[:n], params.hash_spec)
    x[:, c_start:-d] = tensors["emb_hash"].take(rows, axis=0).reshape(b, -1)
    x[:, -d:] = h_agg
    return x, rows


def _head_logprobs(params: ScorerParams, x, t):
    """log-softmax of step t's rank head over the (B, x_dim) inputs x."""
    logits = x @ params.tensors[f"head_w_{t}"].T
    logits += params.tensors[f"head_b_{t}"]
    if not np.isfinite(logits).all():
        raise ScorerError(f"non-finite logits in tensor head_w_{t} at step {t}")
    with np.errstate(over="ignore"):  # a -inf log-prob fails the loss's finiteness check
        logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


@dataclass
class _Cache:
    """Teacher-forced forward state of a batch; row b is samples[b]."""

    tokens: np.ndarray  # (B, n_steps) target tokens, local ids per step
    bos: np.ndarray  # (B,)
    beh_tokens: np.ndarray  # (B, T) behavior tokens, pad token beyond each row's length
    beh_mask: np.ndarray  # (B, T) True on real behavior positions
    keys: np.ndarray  # (B, T, d)
    values: np.ndarray  # (B, T, d)
    q_in: np.ndarray  # (B, n_steps, d)
    attn: np.ndarray  # (B, n_steps, T) softmax rows, zero on padding
    target_logps: np.ndarray  # (B, n_steps)
    # per step, None where the forward did not keep the step
    x_rows: list = field(default_factory=list)  # (B, x_dim) head inputs
    probs: list = field(default_factory=list)  # (B, V_t) softmax
    hash_rows: list = field(default_factory=list)  # (B, R) content-summary rows


def _forward_batch(params: ScorerParams, samples, keep=True) -> _Cache:
    """Teacher-forced forward of a batch, one head matmul per decoding step.

    ``keep`` says, for every step or per step, whether the step's head
    inputs and softmax are kept for :func:`_accumulate_backward`, which
    needs them at each step with a non-zero coefficient.  The target
    log-probs are always filled in.
    """
    space, tensors = params.space, params.tensors
    d = params.config.d_model
    n_steps = space.n_steps
    if not samples:
        raise ScorerError("empty batch")
    for sample in samples:
        if len(sample.tokens) != n_steps:
            raise ScorerError(
                f"sample has {len(sample.tokens)} tokens, space expects {n_steps}"
            )
    tokens = np.array([s.tokens for s in samples], dtype=np.int64)
    _check_tokens(space, tokens)
    b = tokens.shape[0]
    bos = [s.bos for s in samples]
    _check_bos(space, bos)
    bos = np.array(bos, dtype=np.int64)

    beh_tokens, beh_mask, keys, values, h_agg = _behavior_context(
        params, [s.behavior for s in samples])

    # query column j holds the token decoded at step j (column 0: the task BOS)
    q_emb = np.empty((b, n_steps, d))
    q_emb[:, 0] = tensors["emb_bos"][bos]
    for j in range(1, n_steps):
        q_emb[:, j] = tensors[f"emb_step_{j}"][tokens[:, j - 1]]
    q_in, attn, ctx = _attend(params, q_emb, np.arange(1, n_steps + 1), keys, values, beh_mask)

    cache = _Cache(tokens, bos, beh_tokens, beh_mask, keys, values, q_in, attn,
                   target_logps=np.empty((b, n_steps)))
    rows = np.arange(b)
    for t, kept in enumerate(np.broadcast_to(keep, n_steps).tolist(), start=1):
        x, hash_rows = _input_rows(params, tokens[:, :t - 1], ctx[:, t - 1], h_agg)
        logp = _head_logprobs(params, x, t)
        cache.target_logps[:, t - 1] = logp[rows, tokens[:, t - 1]]
        cache.x_rows.append(x if kept else None)
        cache.probs.append(np.exp(logp) if kept else None)
        cache.hash_rows.append(hash_rows if kept else None)
    return cache


def _scatter_add(table, rows, values):
    """table[rows[i]] += values[i], duplicate rows included.

    np.add.at over the flattened table: the same sums in the same order
    as the two-dimensional call, which numpy runs several times slower.
    """
    width = table.shape[1]
    np.add.at(table.reshape(-1), (rows[:, None] * width + np.arange(width)).ravel(),
              values.ravel())


def _accumulate_backward(params: ScorerParams, cache: _Cache, coeffs, grads):
    """Add the gradient of sum_{b,t} coeffs[b, t-1] * log p(target_{b,t} | .) to grads.

    A step whose coefficients are all zero is skipped.  Frozen tensors are
    skipped (their grads stay zero).
    """
    cfg, tensors = params.config, params.tensors
    d, w = cfg.d_model, cfg.prefix_window
    b, n_steps = cache.tokens.shape
    rows = np.arange(b)
    gamma = float(tensors["attn_gamma"])
    c_start = (1 + w) * d
    c_end = c_start + params.hash_spec.output_dim

    d_ctx = np.zeros((b, n_steps, d))
    d_h_agg = np.zeros((b, d))
    # d_emb[:, j] feeds the embedding of step j's token (column 0: the BOS)
    d_emb = np.zeros((b, n_steps, d))

    for t in range(1, n_steps + 1):
        c = coeffs[:, t - 1]
        if not c.any():
            continue
        if cache.x_rows[t - 1] is None:
            raise ScorerError(f"step {t} has coefficients but the forward did not keep it")
        delta = -c[:, None] * cache.probs[t - 1]
        delta[rows, cache.tokens[:, t - 1]] += c  # c * (onehot - p)
        grads[f"head_w_{t}"] += delta.T @ cache.x_rows[t - 1]
        grads[f"head_b_{t}"] += delta.sum(axis=0)
        dx = delta @ tensors[f"head_w_{t}"]

        d_ctx[:, t - 1] = dx[:, :d]
        for slot in range(min(w, t - 1)):
            d_emb[:, t - 1 - slot] += dx[:, (1 + slot) * d:(2 + slot) * d]
        _scatter_add(grads["emb_hash"], cache.hash_rows[t - 1].ravel(),
                     dx[:, c_start:c_end].reshape(-1, params.hash_spec.d_hash))
        d_h_agg += dx[:, -d:]

    # attention backward (queries and keys/values feed the embeddings)
    a = cache.attn  # ctx = gamma * attn @ values
    d_attn = gamma * (d_ctx @ cache.values.transpose(0, 2, 1))
    d_scores = a * (d_attn - (d_attn * a).sum(axis=2, keepdims=True))
    scale = 1.0 / math.sqrt(d)

    d_emb += (d_scores @ cache.keys * scale) @ tensors["attn_wq"].T
    _scatter_add(grads["emb_bos"], cache.bos, d_emb[:, 0])
    for j in range(1, n_steps):
        _scatter_add(grads[f"emb_step_{j}"], cache.tokens[:, j - 1], d_emb[:, j])

    # the (B, T, d) key and value gradients sum into d_beh in place, so at
    # most two of these arrays are alive at once
    d_beh = (d_scores.transpose(0, 2, 1) @ cache.q_in * scale) @ tensors["attn_wk"].T
    d_beh += gamma * (a.transpose(0, 2, 1) @ d_ctx) @ tensors["attn_wv"].T
    mask = cache.beh_mask
    d_beh += (d_h_agg / mask.sum(axis=1)[:, None])[:, None, :]
    _scatter_add(grads["emb_behavior"], cache.beh_tokens[mask], d_beh[mask])


def _weighted_nll_and_grad(batch, weights, params: ScorerParams):
    """-sum_i weights_i * alpha_i * sum_t log p(target_{i,t} | prefix, context)."""
    grads = zero_grads(params)
    cache = _forward_batch(params, batch)
    coeffs = -(np.asarray(weights, dtype=np.float64)
               * np.array([s.alpha for s in batch], dtype=np.float64))
    loss = float(coeffs @ cache.target_logps.sum(axis=1))
    _accumulate_backward(params, cache, np.broadcast_to(coeffs[:, None], cache.tokens.shape),
                         grads)
    return loss, grads


def ntp_loss_and_grad(batch, params: ScorerParams):
    """Teacher-forced next-token loss summed over samples and steps.

    loss = -sum_i alpha_i * sum_t log p(target_{i,t} | prefix, context).
    """
    return _weighted_nll_and_grad(batch, np.ones(len(batch)), params)


def sequence_logprobs(params: ScorerParams, samples) -> np.ndarray:
    """Teacher-forced log-probability of each sample's full token path."""
    return _forward_batch(params, samples, keep=False).target_logps.sum(axis=1)


def sequence_logprob(params: ScorerParams, sample: Sample) -> float:
    """Teacher-forced log-probability of the sample's full token path."""
    return float(sequence_logprobs(params, [sample])[0])


# ----------------------------------------------------------------------
# incremental interface used by beam search
# ----------------------------------------------------------------------

class NeuralSequenceModel:
    """Step-by-step distributions for one fixed (behavior, task) context,
    kept as a one-row :func:`_behavior_context` (C = 1 in :func:`_attend`)."""

    def __init__(self, params: ScorerParams, behavior, bos: int):
        _check_bos(params.space, [bos])
        self.params = params
        self.bos = bos
        _, self.mask, self.keys, self.values, self.h_agg = _behavior_context(params, [behavior])

    def step_logprobs(self, prefix) -> np.ndarray:
        """log p(token | prefix) over the vocabulary of step t = len(prefix)+1.

        ``prefix`` may also be a (B, n) array of B prefixes of one length;
        they are scored as the S = B queries of the one context, with one
        head matmul into a (B, V_t) array.
        """
        params = self.params
        space, tensors = params.space, params.tensors
        try:
            tokens = np.asarray(prefix, dtype=np.int64)
        except ValueError as exc:
            raise ScorerError(f"prefixes must share one length: {exc}") from exc
        one = tokens.ndim == 1
        tokens = tokens.reshape(1, -1) if one else tokens
        if tokens.ndim != 2:
            raise ScorerError(f"need a prefix or a 2-D array of prefixes, got shape "
                              f"{tokens.shape}")
        t = tokens.shape[1] + 1
        if t > space.n_steps:
            raise ScorerError(f"prefix already complete: step {t} out of range "
                              f"1..{space.n_steps}")
        _check_tokens(space, tokens)

        # each row's last decoded token (the BOS at step 1) queries the context
        last = (tensors["emb_bos"][[self.bos]] if t == 1
                else tensors[f"emb_step_{t - 1}"].take(tokens[:, -1], axis=0))
        ctx = _attend(params, last[None], t, self.keys, self.values, self.mask)[2][0]
        x, _ = _input_rows(params, tokens, ctx, self.h_agg)
        logp = _head_logprobs(params, x, t)
        return logp[0] if one else logp


# ----------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------

class AdamW:
    """Decoupled-weight-decay Adam over the trainable tensors."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ScorerParams, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(params.tensors[n]) for n in params.trainable_names()}
        self.v = {n: np.zeros_like(a) for n, a in self.m.items()}

    def step(self, params: ScorerParams, grads: dict):
        """One update of every trainable tensor, in place.

        The operations and their order are the textbook ones::

            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            update = (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps) + wd * p
            p -= lr * update

        so the result is the same bits, with two temporaries per tensor.
        """
        beta1, beta2 = self.beta1, self.beta2
        self.step_count += 1
        t = self.step_count
        for name, m in self.m.items():
            g, v, p = grads[name], self.v[name], params.tensors[name]
            a = np.multiply(g, 1 - beta1)
            m *= beta1
            m += a
            np.multiply(g, 1 - beta2, out=a)
            a *= g
            v *= beta2
            v += a
            np.divide(m, 1 - beta1**t, out=a)
            b = np.divide(v, 1 - beta2**t)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            np.multiply(p, self.weight_decay, out=b)
            a += b
            a *= self.lr
            p -= a


def train_epoch(dataset, params: ScorerParams, batch_size: int, optimizer: AdamW,
                loss_and_grad=ntp_loss_and_grad):
    """One pass over the dataset in batch order; returns per-batch mean losses.

    The batch order is the dataset order (no shuffling here; shuffle the
    dataset deterministically upstream if desired).
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    trace = []
    for start in range(0, len(dataset), batch_size):
        batch = dataset[start:start + batch_size]
        with np.errstate(over="ignore", invalid="ignore"):  # the checks name a divergence
            loss, grads = loss_and_grad(batch, params)
            mean_loss = loss / len(batch)
            if not math.isfinite(mean_loss):
                raise TrainingDivergedError(f"non-finite loss at batch {len(trace)}", trace)
            trace.append(mean_loss)
            optimizer.step(params, grads)
    return params, trace


def train(dataset, params, batch_size: int, epochs: int, lr: float, weight_decay: float):
    """Multi-epoch wrapper sharing one optimizer state; concatenates traces."""
    optimizer = AdamW(params, lr, weight_decay)
    trace = []
    for _ in range(epochs):
        params, t = train_epoch(dataset, params, batch_size, optimizer)
        trace.extend(t)
    return params, trace


# ----------------------------------------------------------------------
# checkpoint persistence
# ----------------------------------------------------------------------

def tensor_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


CHECKPOINT_FORMAT = "sidforge.checkpoint/2"  # tensors as {"shape", "f8le"} objects


def _encode_tensor(arr: np.ndarray) -> dict:
    """``arr`` as its shape and the base64 of its little-endian float64 bytes."""
    return {"shape": list(arr.shape),
            "f8le": base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")}


def save_checkpoint(params: ScorerParams, path, meta: dict | None = None):
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "space": params.space.as_dict(),
        "hash_spec": asdict(params.hash_spec),
        "n_behavior_tokens": params.n_behavior_tokens,
        "frozen": list(FROZEN_TENSORS),
        "frozen_digests": {n: tensor_digest(params.tensors[n]) for n in FROZEN_TENSORS},
        "tensors": {n: _encode_tensor(a) for n, a in params.tensors.items()},
        "meta": meta or {},
    })


def _hash_spec(obj, space: SequenceSpace) -> HashSpec:
    """The stored spec, whose table sizes must be those its pairs get over ``space``."""
    check_fields(expect("object", "hash_spec", obj), {f.name for f in fields(HashSpec)},
                 "hash_spec")
    pairs = [tuple(expect("integer", "hash pair step", t) for t in p) for p in obj["pairs"]]
    spec = hash_spec_for_space(space, pairs, *(expect("integer", f"hash_spec.{k}", obj[k])
                                               for k in ("m_hashes", "p1", "p2", "d_hash")))
    if list(spec.pair_sizes) != obj["pair_sizes"]:
        raise ValueError(f"hash_spec.pair_sizes must be {list(spec.pair_sizes)} for its pairs")
    return spec


_CHECKPOINT_FIELDS = {"format", "config", "space", "hash_spec", "n_behavior_tokens", "frozen",
                      "frozen_digests", "tensors", "meta"}


def _decode_tensor(name: str, obj, shape: tuple) -> np.ndarray:
    """The owned, writable float64 array of ``shape`` that ``obj`` encodes."""
    what = f"tensor {name!r}"
    check_fields(expect("object", what, obj), {"shape", "f8le"}, what)
    if obj["shape"] != list(shape) or not all(type(n) is int for n in obj["shape"]):
        raise CorpusFormatError(f"{what} has shape {obj['shape']!r:.80}, expected {list(shape)}")
    try:
        data = base64.b64decode(expect("string", f"{what} f8le", obj["f8le"]), validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{what} f8le is not base64 ({exc})") from exc
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{what} f8le holds {len(data)} bytes, shape {list(shape)} needs "
                         f"{8 * math.prod(shape)}")
    # a copy: np.frombuffer alone gives a read-only view of ``data``
    arr = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must hold finite numbers")
    return arr


def _checkpoint(doc) -> ScorerParams:
    if "format" not in doc:
        raise CorpusFormatError(
            f"no format field, as in the nested-list checkpoints of earlier versions; this "
            f"version reads format {CHECKPOINT_FORMAT!r} only, so train again")
    if doc["format"] != CHECKPOINT_FORMAT:
        raise CorpusFormatError(f"format must be {CHECKPOINT_FORMAT!r}, got {doc['format']!r:.80}")
    check_fields(doc, _CHECKPOINT_FIELDS, "checkpoint")
    cfg = expect("object", "config", doc["config"])
    check_fields(cfg, {f.name for f in fields(ScorerConfig)}, "config")
    config = ScorerConfig(**cfg)
    space = SequenceSpace.from_dict(doc["space"])
    params = ScorerParams(config, space, _hash_spec(doc["hash_spec"], space),
                          expect("integer", "n_behavior_tokens", doc["n_behavior_tokens"]), {})
    if doc["frozen"] != list(FROZEN_TENSORS):
        raise ValueError(f"frozen must be {list(FROZEN_TENSORS)}, got {doc['frozen']!r:.80}")
    digests = expect("object", "frozen_digests", doc["frozen_digests"])
    check_fields(digests, set(FROZEN_TENSORS), "frozen_digests")
    tensors = expect("object", "tensors", doc["tensors"])
    shapes = _tensor_shapes(params)
    for what, names in (("missing", set(shapes) - set(tensors)),
                        ("unknown", set(tensors) - set(shapes))):
        if names:
            raise CorpusFormatError(f"{what} tensor(s) {sorted(names)}")
    for name, shape in shapes.items():
        params.tensors[name] = _decode_tensor(name, tensors[name], shape)
    for name, digest in digests.items():
        if tensor_digest(params.tensors[name]) != digest:
            raise CorpusFormatError(f"frozen tensor {name} digest mismatch")
    return params


def read_checkpoint(path) -> tuple:
    """The model of :func:`load_checkpoint` and the checkpoint's ``meta``, as stored."""
    return read_document(path, "checkpoint", None, lambda doc: (_checkpoint(doc), doc["meta"]))


def load_checkpoint(path) -> ScorerParams:
    """A checkpoint of :data:`CHECKPOINT_FORMAT` whose tensors have the names and
    shapes of :func:`_tensor_shapes`; any other document raises
    ``CorpusFormatError``.  The format is checked before the keys, so that a
    checkpoint of an earlier version is named as one."""
    return read_checkpoint(path)[0]


def clone_params(params: ScorerParams) -> ScorerParams:
    return replace(params, tensors={n: a.copy() for n, a in params.tensors.items()})
