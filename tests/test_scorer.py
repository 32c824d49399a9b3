"""Forward-path, gradient, training, and count-model tests for the scorer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge import scorer, tokenizer
from sidforge.corpus import CorpusFormatError
from sidforge.scorer import (
    AdamW,
    NeuralSequenceModel,
    Sample,
    ScorerConfig,
    ScorerError,
    init_scorer,
    load_checkpoint,
    ntp_loss_and_grad,
    save_checkpoint,
    sequence_logprob,
    train,
    train_epoch,
)

from helpers import (
    CountScorer,
    f8le,
    reference_input_rows,
    finite_difference_grads,
    max_grad_rel_error,
    random_sample,
    stored,
    teacher_forced_batches,
    tiny_contexts,
    tiny_params,
    to_nested_lists,
    token_paths,
)


@pytest.fixture
def params():
    corp_vocabs = {
        "l2": {f"a{i}": i for i in range(3)},
        "l3": {f"b{i}": i for i in range(4)},
    }
    space = tokenizer.SequenceSpace(attr_chain=("l2", "l3"), attr_vocabs=corp_vocabs,
                                    sid_sizes=(5, 5))
    spec = tokenizer.hash_spec_for_space(space, d_hash=3)
    return init_scorer(space, spec, n_behavior_tokens=8,
                       config=ScorerConfig(d_model=6, seed=11))


def one_row_context(params, behavior):
    """The (keys, values, h_agg) of the one-row context a model keeps."""
    model = NeuralSequenceModel(params, behavior, bos=0)
    assert model.keys.shape[0] == model.values.shape[0] == model.h_agg.shape[0] == 1
    return model.keys[0], model.values[0], model.h_agg[0]


class TestEncodeContext:
    def test_singleton_h_agg_is_embedding(self, params):
        _, _, h = one_row_context(params, (3,))
        np.testing.assert_array_equal(h, params.tensors["emb_behavior"][3])

    def test_permutation_changes_kv_not_h_agg(self, params):
        k1, v1, h1 = one_row_context(params, (1, 2, 3))
        k2, v2, h2 = one_row_context(params, (3, 1, 2))
        np.testing.assert_allclose(h1, h2, atol=1e-15)
        assert not np.allclose(k1, k2)
        assert not np.allclose(v1, v2)

    def test_bitwise_stable(self, params):
        a = one_row_context(params, (1, 5))
        b = one_row_context(params, (1, 5))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_empty_uses_padding_row(self, params):
        model = NeuralSequenceModel(params, (), bos=0)
        np.testing.assert_array_equal(model.h_agg[0],
                                      params.tensors["emb_behavior"][params.pad_token])
        assert model.mask.tolist() == [[True]]

    def test_unknown_token_errors(self, params):
        with pytest.raises(ScorerError):
            NeuralSequenceModel(params, (99,), bos=0)


def dense_attention(params, q_emb, steps, keys, values, mask):
    """Gated cross-attention by explicit loops over contexts, queries and keys."""
    d = params.config.d_model
    pe = scorer.sinusoidal_positions(params.space.n_steps, d)
    wq, gamma = params.tensors["attn_wq"], float(params.tensors["attn_gamma"])
    c, s_len, _ = q_emb.shape
    out = np.zeros((c, s_len, d))
    for ci in range(c):
        for si in range(s_len):
            q = (q_emb[ci, si] + pe[steps[si] - 1]) @ wq
            real = [j for j in range(keys.shape[1]) if mask[ci, j]]
            exps = [math.exp(float(q @ keys[ci, j]) / math.sqrt(d)) for j in real]
            for j, e in zip(real, exps):
                out[ci, si] += gamma * (e / sum(exps)) * values[ci, j]
    return out


class TestGatedCrossAttention:
    def draw(self, params, c, s_len, t_len, seed):
        rng = np.random.default_rng(seed)
        d = params.config.d_model
        return (rng.normal(size=(c, s_len, d)), rng.normal(size=(c, t_len, d)),
                rng.normal(size=(c, t_len, d)))

    def test_zero_gate_zero_output(self, params):
        q_emb, k, v = self.draw(params, 2, 2, 3, 0)
        params.tensors["attn_gamma"] = np.array(0.0)
        _, _, ctx = scorer._attend(params, q_emb, np.array([1, 2]), k, v, np.ones((2, 3), bool))
        assert np.all(ctx == 0)

    def test_single_key_returns_gated_value(self, params):
        q_emb, k, v = self.draw(params, 2, 3, 1, 1)
        params.tensors["attn_gamma"] = np.array(0.7)
        _, attn, ctx = scorer._attend(params, q_emb, 2, k, v, np.ones((2, 1), bool))
        assert np.all(attn == 1.0)
        np.testing.assert_allclose(ctx, np.repeat(0.7 * v, 3, axis=1), atol=1e-14)

    def test_matches_naive_dense_oracle(self, params):
        q_emb, k, v = self.draw(params, 2, 4, 3, 2)
        params.tensors["attn_gamma"] = np.array(1.3)
        steps, mask = np.arange(1, 5), np.ones((2, 3), bool)
        _, _, ctx = scorer._attend(params, q_emb, steps, k, v, mask)
        np.testing.assert_allclose(ctx, dense_attention(params, q_emb, steps, k, v, mask),
                                   atol=1e-12)

    def test_masked_rows_match_oracle_and_unpadded_rows(self, params):
        q_emb, k, v = self.draw(params, 3, 4, 5, 3)
        steps = np.arange(1, 5)
        mask = np.arange(5) < np.array([[5], [2], [1]])
        _, attn, ctx = scorer._attend(params, q_emb, steps, k, v, mask)
        assert np.all(attn[~np.broadcast_to(mask[:, None, :], attn.shape)] == 0.0)
        np.testing.assert_allclose(ctx, dense_attention(params, q_emb, steps, k, v, mask),
                                   atol=1e-12)
        for c, length in ((1, 2), (2, 1)):  # the same context without its padding
            _, _, alone = scorer._attend(params, q_emb[c:c + 1], steps, k[c:c + 1, :length],
                                         v[c:c + 1, :length], np.ones((1, length), bool))
            np.testing.assert_allclose(ctx[c], alone[0], rtol=0, atol=1e-15)


class TestStepLogits:
    def test_zero_head_uniform(self, params):
        params.tensors["head_w_1"][:] = 0
        params.tensors["head_b_1"][:] = 0
        model = NeuralSequenceModel(params, (1, 2), bos=0)
        logp = model.step_logprobs([()])
        assert logp.shape == (1, params.space.step_vocab_size(1))
        np.testing.assert_allclose(np.exp(logp), 1.0 / logp.shape[1], atol=1e-15)

    def test_step_out_of_range(self, params):
        model = NeuralSequenceModel(params, (), bos=0)
        complete = (0,) * params.space.n_steps
        with pytest.raises(ScorerError):
            model.step_logprobs([complete, complete])
        with pytest.raises(ScorerError):
            model.step_logprobs(complete)

    def test_batch_rows_match_single_prefix_calls(self, params):
        model = NeuralSequenceModel(params, (3, 1, 4), bos=2)
        prefixes = [(0, 1), (2, 3), (1, 0), (0, 1)]
        batch = model.step_logprobs(prefixes)
        assert batch.shape == (4, params.space.step_vocab_size(3))
        for prefix, row in zip(prefixes, batch):
            np.testing.assert_allclose(row, model.step_logprobs(prefix), rtol=0, atol=1e-12)

    def test_unequal_or_invalid_prefixes_raise(self, params):
        model = NeuralSequenceModel(params, (), bos=0)
        with pytest.raises(ScorerError):
            model.step_logprobs([(0,), (0, 1)])
        with pytest.raises(ScorerError):
            model.step_logprobs(np.zeros((1, 1, 1), dtype=int))
        with pytest.raises(ScorerError, match="out of range at step 2"):
            model.step_logprobs([(0, 99)])

    @given(tiny_contexts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_match_teacher_forced_forward(self, context, data):
        params, behavior, bos = context
        model = NeuralSequenceModel(params, behavior, bos)
        for t in range(1, params.space.n_steps + 1):
            paths = data.draw(st.lists(token_paths(params.space), min_size=1, max_size=4))
            batch = model.step_logprobs([p[:t - 1] for p in paths])
            for path, row in zip(paths, batch):
                cache = scorer._forward_batch(params, [Sample(behavior, bos, path)])
                np.testing.assert_allclose(row, np.log(cache.probs[t - 1][0]), rtol=0,
                                           atol=1e-12)

    @given(tiny_contexts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_input_rows_equal_the_zeroed_padded_reference(self, context, data):
        """x and the hash rows of every step are the reference's, bit for bit,
        with h_agg one row for all (beam search) or one per row (training)."""
        params, _, _ = context
        d = params.config.d_model
        paths = np.array(data.draw(st.lists(token_paths(params.space), min_size=1, max_size=5)),
                         dtype=np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        b = len(paths)
        for t in range(1, params.space.n_steps + 1):
            q = rng.normal(size=(b, d))
            h_agg = rng.normal(size=(data.draw(st.sampled_from((1, b))), d))
            x, rows = scorer._input_rows(params, paths[:, :t - 1], q, h_agg)
            want_x, want_rows = reference_input_rows(params, paths[:, :t - 1], q, h_agg)
            assert np.array_equal(x, want_x), t
            assert np.array_equal(rows, want_rows), t

    def test_non_finite_head_raises(self, params):
        params.tensors["head_w_2"][1, 0] = np.nan
        model = NeuralSequenceModel(params, (1, 2), bos=0)
        model.step_logprobs(())  # step 1 does not read head_w_2
        with pytest.raises(ScorerError, match="head_w_2"):
            model.step_logprobs([(0,), (2,)])

    @pytest.mark.parametrize("end", ["below", "above"])
    def test_task_bos_outside_the_task_tokens_raises(self, params, end):
        n_task = params.space.n_task_tokens
        bos = -1 if end == "below" else n_task
        with pytest.raises(ScorerError, match=f"task BOS {bos} out of range 0..{n_task - 1}"):
            NeuralSequenceModel(params, (1, 2), bos=bos)
        sample = Sample(behavior=(1,), bos=bos, tokens=(1, 2, 3, 4))
        with pytest.raises(ScorerError, match=f"task BOS {bos} out of range"):
            sequence_logprob(params, sample)
        with pytest.raises(ScorerError, match=f"task BOS {bos} out of range"):
            ntp_loss_and_grad([Sample(behavior=(1,), bos=0, tokens=(1, 2, 3, 4)), sample],
                              params)
        for edge in (0, n_task - 1):  # both ends of the range still score
            NeuralSequenceModel(params, (1, 2), bos=edge).step_logprobs(())
            sequence_logprob(params, Sample(behavior=(1,), bos=edge, tokens=(1, 2, 3, 4)))

    def test_softmax_normalization(self, params):
        sample = Sample(behavior=(1,), bos=0, tokens=(1, 2, 3, 4))
        cache = scorer._forward_batch(params, [sample])
        for p in cache.probs:
            assert abs(p[0].sum() - 1.0) < 1e-12


class TestTeacherForcedBatch:
    @given(teacher_forced_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_one_sample_calls(self, drawn):
        params, batch = drawn
        cache = scorer._forward_batch(params, batch)
        loss, grads = ntp_loss_and_grad(batch, params)
        want_loss, want_grads = 0.0, scorer.zero_grads(params)
        for sample, row in zip(batch, cache.target_logps):
            one = scorer._forward_batch(params, [sample])
            np.testing.assert_allclose(row, one.target_logps[0], rtol=0, atol=1e-12)
            sample_loss, sample_grads = ntp_loss_and_grad([sample], params)
            want_loss += sample_loss
            for name, g in sample_grads.items():
                want_grads[name] += g
        assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
        for name, g in want_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_empty_batch_and_wrong_token_count_are_refused(self, params):
        with pytest.raises(ScorerError, match="^empty batch$"):
            scorer._forward_batch(params, [])
        sample = random_sample(np.random.default_rng(0), params)
        short = Sample(sample.behavior, sample.bos, sample.tokens[:-1])
        with pytest.raises(ScorerError, match="^sample has 3 tokens, space expects 4$"):
            scorer._forward_batch(params, [sample, short])


class TestNtpLoss:
    def test_all_vocab_one_gives_zero(self):
        space = tokenizer.SequenceSpace(
            attr_chain=(), attr_vocabs={}, sid_sizes=(1, 1))
        spec = tokenizer.hash_spec_for_space(space, d_hash=2)
        p = init_scorer(space, spec, 3, ScorerConfig(d_model=4, seed=0))
        loss, grads = ntp_loss_and_grad([Sample(behavior=(0,), bos=1, tokens=(0, 0))], p)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_uniform_logits_cross_entropy(self):
        space = tokenizer.SequenceSpace(attr_chain=(), attr_vocabs={}, sid_sizes=(4, 4))
        spec = tokenizer.hash_spec_for_space(space, d_hash=2)
        p = init_scorer(space, spec, 3, ScorerConfig(d_model=4, seed=0))
        for t in (1, 2):
            p.tensors[f"head_w_{t}"][:] = 0
            p.tensors[f"head_b_{t}"][:] = 0
        loss, _ = ntp_loss_and_grad([Sample(behavior=(0,), bos=0, tokens=(2, 3), alpha=1.0)], p)
        assert loss == pytest.approx(2 * math.log(4), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        params = tiny_params(rng)
        batch = [random_sample(rng, params) for _ in range(2)]
        _, grads = ntp_loss_and_grad(batch, params)
        fd = finite_difference_grads(lambda p: ntp_loss_and_grad(batch, p)[0], params)
        assert max_grad_rel_error(grads, fd) < 1e-4

    def test_loss_matches_incremental_forward(self, params):
        sample = Sample(behavior=(2, 4), bos=3, tokens=(1, 0, 2, 4), alpha=1.0)
        loss, _ = ntp_loss_and_grad([sample], params)
        model = NeuralSequenceModel(params, sample.behavior, sample.bos)
        total = 0.0
        for t, tok in enumerate(sample.tokens):
            total += float(model.step_logprobs(sample.tokens[:t])[tok])
        assert loss == pytest.approx(-total, abs=1e-12)
        assert sequence_logprob(params, sample) == pytest.approx(total, abs=1e-12)

    def test_out_of_range_target_errors(self, params):
        with pytest.raises(ScorerError):
            ntp_loss_and_grad([Sample(behavior=(), bos=0, tokens=(99, 0, 0, 0))], params)


class TestTraining:
    def make_dataset(self, params, n, seed):
        rng = np.random.default_rng(seed)
        return [random_sample(rng, params, alpha=1.0) for _ in range(n)]

    def test_zero_lr_keeps_params_bitwise(self, params):
        data = self.make_dataset(params, 8, 0)
        before = {n: a.tobytes() for n, a in params.tensors.items()}
        train_epoch(data, params, 4, AdamW(params, lr=0.0, weight_decay=1e-4))
        after = {n: a.tobytes() for n, a in params.tensors.items()}
        assert before == after

    def test_frozen_tensors_never_move(self, params):
        data = self.make_dataset(params, 16, 1)
        frozen_before = {n: params.tensors[n].tobytes() for n in scorer.FROZEN_TENSORS}
        train(data, params, 4, epochs=3, lr=1e-2, weight_decay=1e-4)
        for n, b in frozen_before.items():
            assert params.tensors[n].tobytes() == b

    def test_loss_decreases_on_small_task(self):
        rng = np.random.default_rng(5)
        params = tiny_params(rng, d_model=8)
        data = self.make_dataset(params, 100, 2)
        _, trace = train(data, params, 50, epochs=100, lr=3e-3, weight_decay=1e-4)
        assert len(trace) == 200
        assert np.mean(trace[-4:]) < np.mean(trace[:4])

    def test_non_finite_loss_raises_before_the_step(self, params):
        # the target's log-softmax is -1e308 - 1e308 = -inf
        params.tensors["head_b_1"][:] = 1e308
        params.tensors["head_b_1"][1] = -1e308
        before = {n: a.tobytes() for n, a in params.tensors.items()}
        data = [Sample(behavior=(), bos=0, tokens=(1, 0, 0, 0))]
        with np.errstate(over="ignore"), pytest.raises(
                scorer.TrainingDivergedError, match="non-finite loss at batch 0") as info:
            train_epoch(data, params, 4, AdamW(params, lr=1e-3, weight_decay=1e-4))
        assert info.value.trace == []
        assert {n: a.tobytes() for n, a in params.tensors.items()} == before

    def test_same_seed_identical_traces(self):
        rng1 = np.random.default_rng(9)
        p1 = tiny_params(rng1)
        rng2 = np.random.default_rng(9)
        p2 = tiny_params(rng2)
        data1 = self.make_dataset(p1, 12, 3)
        data2 = self.make_dataset(p2, 12, 3)
        _, t1 = train_epoch(data1, p1, 4, AdamW(p1, lr=1e-3, weight_decay=1e-4))
        _, t2 = train_epoch(data2, p2, 4, AdamW(p2, lr=1e-3, weight_decay=1e-4))
        assert t1 == t2


class TestAdamW:
    def test_in_place_step_equals_textbook_formula(self):
        rng = np.random.default_rng(21)
        params = tiny_params(rng, d_model=8)
        lr, wd, beta1, beta2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
        opt = scorer.AdamW(params, lr, wd)
        assert (opt.beta1, opt.beta2, opt.eps) == (beta1, beta2, eps)
        names = list(opt.m)
        ref_p = {n: params.tensors[n].copy() for n in names}
        ref_m = {n: np.zeros_like(a) for n, a in ref_p.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref_p.items()}
        for t in range(1, 6):
            grads = {n: rng.normal(scale=10.0 ** rng.uniform(-4, 1), size=a.shape)
                     for n, a in ref_p.items()}
            opt.step(params, grads)
            for n in names:
                g = grads[n]
                ref_m[n] = beta1 * ref_m[n] + (1 - beta1) * g
                ref_v[n] = beta2 * ref_v[n] + (1 - beta2) * g * g
                m_hat = ref_m[n] / (1 - beta1**t)
                v_hat = ref_v[n] / (1 - beta2**t)
                update = m_hat / (np.sqrt(v_hat) + eps) + wd * ref_p[n]
                ref_p[n] = ref_p[n] - lr * update
            for n in names:
                assert params.tensors[n].tobytes() == ref_p[n].tobytes(), (t, n)
                assert opt.m[n].tobytes() == ref_m[n].tobytes(), (t, n)
                assert opt.v[n].tobytes() == ref_v[n].tobytes(), (t, n)


class TestCountScorer:
    def test_repeated_sequence_logprob_zero(self):
        cs = CountScorer([(0, 1, 2)] * 5, vocab_sizes=(3, 3, 3))
        assert cs.logprob((0, 1, 2)) == 0.0

    def test_two_equiprobable_continuations(self):
        cs = CountScorer([(0, 1), (0, 2)], vocab_sizes=(1, 3))
        probs = cs.step_probs((0,))
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.5)

    def test_additive_smoothing_matches_hand_computation(self):
        # corpus: (0,0), (0,1), (1,1); kappa = 1
        cs = CountScorer([(0, 0), (0, 1), (1, 1)], vocab_sizes=(2, 2), smoothing=1.0)
        # first step: count(0)=2, count(1)=1, total=3, V=2
        np.testing.assert_allclose(cs.step_probs(()), [(2 + 1) / 5, (1 + 1) / 5])
        # after prefix (0,): counts {0:1, 1:1}, total 2, V=2
        np.testing.assert_allclose(cs.step_probs((0,)), [0.5, 0.5])
        # after prefix (1,): counts {1:1}, total 1, V=2
        np.testing.assert_allclose(cs.step_probs((1,)), [(0 + 1) / 3, (1 + 1) / 3])

    def test_unseen_prefix_with_zero_smoothing_errors(self):
        cs = CountScorer([(0, 0)], vocab_sizes=(2, 2))
        with pytest.raises(ValueError):
            cs.step_probs((1,))


class TestCheckpoint:
    def test_round_trip(self, params, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, path, meta={"note": "test"})
        loaded = load_checkpoint(path)
        assert list(loaded.tensors) == list(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        assert loaded.space.as_dict() == params.space.as_dict()

    def test_frozen_digest_mismatch_detected(self, params, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        assert params.tensors["attn_gamma"] != 2.0
        doc["tensors"]["attn_gamma"] = f8le(2.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusFormatError, match="frozen tensor attn_gamma digest mismatch"):
            load_checkpoint(path)

    def test_loaded_tensors_can_be_trained_in_place(self, params, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name, arr in loaded.tensors.items():
            assert arr.dtype == np.float64 and arr.dtype.isnative, name
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata, name
            assert arr.tobytes() == params.tensors[name].tobytes(), name
        rng = np.random.default_rng(5)
        _, grads = ntp_loss_and_grad([random_sample(rng, params) for _ in range(4)], params)
        for p in (params, loaded):
            AdamW(p, lr=1e-2, weight_decay=1e-4).step(p, grads)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes(), name

    def test_init_builds_the_checked_layout(self, params):
        shapes = {name: a.shape for name, a in params.tensors.items()}
        assert list(shapes.items()) == list(scorer._tensor_shapes(params).items())

    @pytest.mark.parametrize("edit, want", [
        (lambda d: d["tensors"].pop("head_w_2"), r"missing tensor\(s\) \['head_w_2'\]"),
        (lambda d: d["tensors"].update(head_w_2=f8le(stored(d, "head_w_2")[:-1])),
         r"tensor 'head_w_2' has shape \[3, \d+\], expected \[4, \d+\]"),
        (lambda d: d["tensors"].update(head_w_9=[0.0]),
         r"unknown tensor\(s\) \['head_w_9'\]"),
        (lambda d: d["tensors"].update(emb_hash=[[0.0], [0.0, 1.0]]),
         "malformed checkpoint"),
        (lambda d: d.update(config=[1]), "malformed checkpoint"),
        (lambda d: d["tensors"]["emb_hash"].update(f8le=d["tensors"]["emb_hash"]["f8le"] + "*"),
         r"malformed checkpoint \(tensor 'emb_hash' f8le is not base64"),
        (lambda d: d["tensors"]["emb_hash"].update(f8le=f8le(stored(d, "emb_hash")[1:])["f8le"]),
         r"malformed checkpoint \(tensor 'emb_hash' f8le holds \d+ bytes, shape \[\d+, 3\]"),
        (lambda d: d.pop("format"), "no format field"),
        (to_nested_lists, "no format field"),
        (lambda d: d["tensors"]["emb_hash"].update(shape=[9.0, 3.0]),
         r"tensor 'emb_hash' has shape \[9\.0, 3\.0\], expected \[9, 3\]"),
        (lambda d: d.update(format="sidforge.checkpoint/1"),
         r"format must be 'sidforge\.checkpoint/2', got 'sidforge\.checkpoint/1'"),
    ], ids=["missing", "short", "unknown", "ragged", "config-not-an-object", "bad-base64",
            "byte-length", "no-format", "nested-list-format", "float-shape", "other-format"])
    def test_tensor_names_and_shapes_are_checked(self, params, tmp_path, edit, want):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusFormatError, match=f"checkpoint.json: {want}"):
            load_checkpoint(path)
