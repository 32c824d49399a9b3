"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Each test is self-contained apart from the shared
10k-item corpus fixture used by the two clustering criteria.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from sidforge import alignment, analysis, corpus, pipeline, quantizer, scorer, tokenizer
from sidforge.cli import main as cli_main
from sidforge.decoder import beam_search, build_trie
from sidforge.scorer import NeuralSequenceModel, Sample

from helpers import (
    finite_difference_grads,
    max_grad_rel_error,
    random_sample,
    tiny_params,
)

TAU = 1.05
K64 = 64
LAYERS = 3


def announce(num, text):
    print(f"\n[criterion {num:02d}] PASS: {text}")


@pytest.fixture(scope="module")
def zipf_corpus():
    """10k-item corpus with the heavy Zipf tail packed into one tight blob."""
    cfg = corpus.SynthConfig(
        n_items=10_000, d_emb=16, n_clusters_true=8, zipf_exponent=1.1,
        attr_correlation=0.9, seed=11, n_requests=10,
        popularity_concentration=0.9, popular_blobs=1, popular_blob_scale=0.08,
    )
    return corpus.generate_corpus(cfg)


@pytest.fixture(scope="module")
def capacity_run(zipf_corpus):
    t0 = time.monotonic()
    rq = quantizer.capacity_constrained_rq(
        zipf_corpus, LAYERS, K64, TAU, seed=0, strict=True)
    return rq, time.monotonic() - t0


@pytest.fixture(scope="module")
def baseline_run(zipf_corpus):
    t0 = time.monotonic()
    rq = quantizer.rq_kmeans_baseline(zipf_corpus, LAYERS, K64, seed=0)
    return rq, time.monotonic() - t0


def test_01_capacity_feasibility(zipf_corpus, capacity_run):
    rq, elapsed = capacity_run
    w = np.array([it.exposure_weight
                  for it in sorted(zipf_corpus.items, key=lambda i: i.item_id)],
                 dtype=np.float64)
    cap = TAU * w.sum() / K64
    codes = rq.codes_matrix()
    for layer in range(LAYERS):
        recounted = np.bincount(codes[:, layer], weights=w, minlength=K64)
        assert recounted.max() <= cap, f"layer {layer} overloaded"
    assert not rq.violations
    assert elapsed < 60.0, f"capacity run took {elapsed:.1f}s"
    announce(1, f"independently recounted loads within {TAU}*C_cap at all "
                f"{LAYERS} layers, strict mode, {elapsed:.1f}s")


def test_02_matthew_effect_direction(zipf_corpus, capacity_run, baseline_run):
    rq_cap, t_cap = capacity_run
    rq_base, t_base = baseline_run
    w = np.array([it.exposure_weight
                  for it in sorted(zipf_corpus.items, key=lambda i: i.item_id)],
                 dtype=np.float64)
    t0 = time.monotonic()
    share_cap = analysis.exposure_concentration(rq_cap.codes_matrix(), w, 3, 0.01)
    share_base = analysis.exposure_concentration(rq_base.codes_matrix(), w, 3, 0.01)
    elapsed = t_cap + t_base + (time.monotonic() - t0)
    assert share_cap <= 0.8 * share_base, (
        f"capacity {share_cap:.4f} vs baseline {share_base:.4f}")
    assert elapsed < 90.0
    announce(2, f"top-1% depth-3 exposure share {share_cap:.3f} (capacity) vs "
                f"{share_base:.3f} (baseline), ratio {share_cap/share_base:.2f} "
                f"<= 0.8, {elapsed:.1f}s")


def test_03_entropy_reduction():
    deltas = {}
    for rho in (0.9, 0.0):
        cfg = corpus.SynthConfig(
            n_items=10_000, d_emb=16, n_clusters_true=8, zipf_exponent=0.8,
            attr_correlation=rho, seed=23)
        corp = corpus.generate_corpus(cfg)
        rq = quantizer.capacity_constrained_rq(corp, 3, 16, 1.2, seed=1)
        items = sorted(corp.items, key=lambda it: it.item_id)
        w = np.array([it.exposure_weight for it in items], dtype=np.float64)
        vocabs = corp.attr_vocabs
        attrs = np.array([
            [vocabs["l2"][it.attrs["l2"]], vocabs["l3"][it.attrs["l3"]]]
            for it in items])
        deltas[rho] = analysis.entropy_reduction(rq.codes_matrix(), attrs, w, 0)
    assert deltas[0.9] > 0.05, f"rho=0.9 gave {deltas[0.9]:.4f} bits"
    assert abs(deltas[0.0]) < 0.05, f"rho=0 gave {deltas[0.0]:.4f} bits"

    # exact tables: delta >= 0 with equality exactly under conditional
    # independence
    rng = np.random.default_rng(3)
    for trial in range(30):
        na, nc = 3, 4
        independent = trial % 2 == 1
        if independent:
            joint = np.outer(rng.dirichlet(np.ones(na)), rng.dirichlet(np.ones(nc)))
        else:
            joint = rng.dirichlet(np.ones(na * nc)).reshape(na, nc)
        attrs, codes, w = [], [], []
        for a in range(na):
            for c in range(nc):
                attrs.append(a)
                codes.append([c])
                w.append(joint[a, c])
        delta = analysis.entropy_reduction(
            np.array(codes), np.array(attrs), np.array(w), 0)
        assert delta >= -1e-12
        if independent:
            assert abs(delta) < 1e-10
        else:
            assert delta > 1e-6
    announce(3, f"plug-in dH0 = {deltas[0.9]:.2f} bits at rho=0.9, "
                f"{deltas[0.0]:+.3f} at rho=0; exact tables nonnegative with "
                f"equality iff conditionally independent")


def test_04_bayes_rank_equivalence():
    t0 = time.monotonic()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        joint = analysis.random_discrete_joint(rng)
        assert joint.n_combos <= 64
        for u in range(joint.p_user.shape[0]):
            res = analysis.bayes_rank_check(joint, u)
            assert res.equal_up_to_ties, f"seed {seed}, user {u}"
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    announce(4, f"discriminative and generative orders (incl. chain-rule "
                f"re-expansion) agree on {checked} rankings across 100 joints, "
                f"{elapsed:.1f}s")


def _random_pair(params, rng):
    space = params.space
    draw = lambda: tuple(int(rng.integers(0, space.step_vocab_size(t)))
                         for t in range(1, space.n_steps + 1))
    w, l = draw(), draw()
    while l[-1] == w[-1]:
        l = draw()
    return alignment.PreferencePair(
        request_id="r", behavior=tuple(int(b) for b in rng.integers(0, 4, size=2)),
        bos=int(rng.integers(0, space.n_task_tokens)), winner=w, loser=l,
        winner_item=0, loser_item=1, winner_level=2, loser_level=1,
        winner_rank=1, loser_rank=2)


def test_05_gradient_correctness():
    worst = {"ntp": 0.0, "rft": 0.0, "dpo_on": 0.0, "dpo_off": 0.0}
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        params = tiny_params(rng, d_model=3, d_hash=2, n_behavior=4)
        batch = [random_sample(rng, params) for _ in range(2)]

        _, g = scorer.ntp_loss_and_grad(batch, params)
        fd = finite_difference_grads(
            lambda p: scorer.ntp_loss_and_grad(batch, p)[0], params)
        worst["ntp"] = max(worst["ntp"], max_grad_rel_error(g, fd))

        adv = alignment.normalize_advantages(
            rng.uniform(0, 5, size=len(batch)), c_clip=2.0, eps=1e-8)
        lam = 0.3
        _, g = alignment.rft_loss_and_grad(batch, adv, lam, params)
        fd = finite_difference_grads(
            lambda p: alignment.rft_loss_and_grad(batch, adv, lam, p)[0], params)
        worst["rft"] = max(worst["rft"], max_grad_rel_error(g, fd))

        ref = scorer.clone_params(params)
        for name in ref.trainable_names():
            ref.tensors[name] = ref.tensors[name] + 0.05 * rng.standard_normal(
                ref.tensors[name].shape)
        pair = _random_pair(params, rng)
        beta = float(rng.uniform(0.5, 2.0))

        _, g = alignment.dpo_loss_and_grad([pair], params, ref, beta, stop_grad=False)
        fd = finite_difference_grads(
            lambda p: alignment.dpo_loss_and_grad([pair], p, ref, beta,
                                                  stop_grad=False)[0], params)
        worst["dpo_off"] = max(worst["dpo_off"], max_grad_rel_error(g, fd))

        w_s = Sample(behavior=pair.behavior, bos=pair.bos, tokens=pair.winner)
        l_s = Sample(behavior=pair.behavior, bos=pair.bos, tokens=pair.loser)
        base_w = scorer._forward_batch(params, [w_s]).target_logps[0].copy()
        base_l = scorer._forward_batch(params, [l_s]).target_logps[0].copy()
        ref_w = scorer._forward_batch(ref, [w_s]).target_logps[0].sum()
        ref_l = scorer._forward_batch(ref, [l_s]).target_logps[0].sum()

        def surrogate(p):
            lw = base_w[:-1].sum() + scorer._forward_batch(p, [w_s]).target_logps[0, -1]
            ll = base_l[:-1].sum() + scorer._forward_batch(p, [l_s]).target_logps[0, -1]
            return float(np.logaddexp(0.0, -beta * ((lw - ref_w) - (ll - ref_l))))

        _, g = alignment.dpo_loss_and_grad([pair], params, ref, beta, stop_grad=True)
        fd = finite_difference_grads(surrogate, params)
        worst["dpo_on"] = max(worst["dpo_on"], max_grad_rel_error(g, fd))

    for name, err in worst.items():
        assert err < 1e-4, f"{name} worst relative error {err:.2e}"
    announce(5, "analytic vs central-difference gradients (h=1e-5) on 10 "
                "instances each; worst relative errors " +
             ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_06_reduction_identities():
    rng = np.random.default_rng(77)
    params = tiny_params(rng)
    batch = [random_sample(rng, params) for _ in range(3)]
    adv = alignment.normalize_advantages([1.0, 4.0, 0.5], c_clip=3.0, eps=1e-8)

    loss_rft, g_rft = alignment.rft_loss_and_grad(batch, adv, 0.0, params)
    loss_ntp, g_ntp = scorer.ntp_loss_and_grad(batch, params)
    assert loss_rft == loss_ntp
    assert all(g_rft[n].tobytes() == g_ntp[n].tobytes() for n in g_ntp)

    pairs = [_random_pair(params, rng) for _ in range(3)]
    loss_dpo, _ = alignment.dpo_loss_and_grad(pairs, params, params, beta=0.1)
    assert abs(loss_dpo - math.log(2)) < 1e-12

    ref = scorer.clone_params(params)
    adv2 = alignment.normalize_advantages([1.0, 4.0, 0.5], c_clip=3.0, eps=1e-8)
    loss_joint, g_joint = alignment.joint_loss(
        batch, pairs, params, ref, adv2, lam=0.2, lambda_dpo=0.0)
    loss_rft2, g_rft2 = alignment.rft_loss_and_grad(batch, adv2, 0.2, params)
    assert loss_joint == loss_rft2
    assert all(g_joint[n].tobytes() == g_rft2[n].tobytes() for n in g_rft2)
    announce(6, "RFT(lam=0) == NTP bitwise; DPO at reference == ln 2 within "
                "1e-12; joint(lambda_dpo=0) == RFT bitwise")


def test_07_stop_gradient_isolation():
    rng = np.random.default_rng(88)
    params = tiny_params(rng)
    ref = scorer.clone_params(params)
    for name in ref.trainable_names():
        ref.tensors[name] = ref.tensors[name] + 0.03 * rng.standard_normal(
            ref.tensors[name].shape)
    pairs = [_random_pair(params, rng) for _ in range(4)]
    _, grads = alignment.dpo_loss_and_grad(pairs, params, ref, beta=0.5,
                                           stop_grad=True)
    last = params.space.n_steps
    for t in range(1, last):
        assert np.all(grads[f"head_w_{t}"] == 0.0)
        assert np.all(grads[f"head_b_{t}"] == 0.0)
    assert np.any(grads[f"head_w_{last}"] != 0.0)
    announce(7, f"DPO stop-gradient: rank-head gradients exactly zero for "
                f"steps 1..{last - 1}, non-zero at step {last}")


def test_08_beam_search_oracle_equivalence():
    attr_vocabs = {"l2": {f"a{i}": i for i in range(3)},
                   "l3": {f"b{i}": i for i in range(3)}}
    space = tokenizer.SequenceSpace(attr_chain=("l2", "l3"),
                                    attr_vocabs=attr_vocabs, sid_sizes=(3, 3, 3))
    spec = tokenizer.hash_spec_for_space(space, d_hash=3)
    params = scorer.init_scorer(space, spec, 6,
                                scorer.ScorerConfig(d_model=8, seed=4))
    seqs = {i: p for i, p in enumerate(itertools.product(range(3), repeat=5))}
    trie = build_trie(seqs)
    model = NeuralSequenceModel(params, (1, 3), bos=2)

    scored = []
    for path in trie.paths():
        lp = sum(float(model.step_logprobs(path[:t])[path[t]])
                 for t in range(len(path)))
        scored.append((path, lp))
    scored.sort(key=lambda e: (-e[1], e[0]))

    for k in (1, 5, 20):
        got = beam_search(model, trie, beam_width=243, top_k=k)
        assert [c.path for c in got] == [p for p, _ in scored[:k]], f"K={k}"
        for c, (_, lp) in zip(got, scored[:k]):
            assert c.logprob == pytest.approx(lp, abs=1e-12)
    announce(8, "width-243 beam over 3^5 trie paths reproduces exhaustive "
                "top-K ranking exactly for K in {1, 5, 20}")


def test_09_attribute_chain_direction():
    t0 = time.monotonic()
    cfg = pipeline.load_config({
        "seed": 17,
        "corpus": {"n_items": 500, "d_emb": 16, "n_clusters_true": 8,
                   "attr_correlation": 0.9, "n_requests": 1500,
                   "events_per_request": 4, "seed": 17},
        "quantizer": {"n_layers": 3, "k": 16, "tau": 1.2},
        "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 8},
        "scorer": {"d_model": 32, "max_behavior_len": 12},
        "train": {"epochs": 3, "lr": 3e-3, "batch_size": 64},
        "eval": {"ks": [5], "beam_width": 16},
    })
    corp = corpus.generate_corpus(cfg.corpus)
    log = corpus.generate_interactions(corp, cfg.corpus)
    reports = pipeline.ablation_run(cfg, corp, log, [(), ("l2", "l3")],
                                    ["capacity"])
    direct = reports["capacity:direct-sid"].token_hr3["s0"]
    chained = reports["capacity:l2>l3"].token_hr3["s0"]
    elapsed = time.monotonic() - t0
    assert chained >= direct + 0.05, f"direct {direct:.3f} vs chained {chained:.3f}"
    assert elapsed < 300.0
    announce(9, f"s0 token HR@3 {direct:.3f} (direct) -> {chained:.3f} "
                f"(attribute chain), gap {chained - direct:.3f} >= 0.05, equal "
                f"budget and seed, {elapsed:.0f}s")


def test_10_hash_sizing_against_bigfloat_oracle():
    import mpmath

    mpmath.mp.dps = 60
    rng = np.random.default_rng(31)
    cases = [[4000, 4000]]
    for _ in range(20):
        n = int(rng.integers(1, 5))
        cases.append([int(rng.integers(1, 50_000)) for _ in range(n)])
    for sizes in cases:
        prod = int(np.prod(sizes))
        oracle = int(mpmath.floor(mpmath.power(prod, mpmath.mpf(2) / (len(sizes) + 1))))
        got = tokenizer.hash_table_size(sizes)
        assert got == oracle, f"{sizes}: {got} != {oracle}"
    assert tokenizer.hash_table_size([4000, 4000]) == 63496
    announce(10, "hash table sizing matches the 60-digit big-float oracle on "
                 "21 vocab tuples including [4000, 4000] -> 63496")


def test_11_pipeline_determinism(tmp_path):
    config = {
        "seed": 9,
        "corpus": {"n_items": 80, "d_emb": 6, "n_clusters_true": 4,
                   "n_requests": 100, "events_per_request": 3, "seed": 9},
        "quantizer": {"n_layers": 2, "k": 4, "tau": 1.2},
        "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 4},
        "scorer": {"d_model": 8, "max_behavior_len": 8},
        "train": {"epochs": 1, "batch_size": 16},
        "align": {"epochs": 1, "batch_size": 16, "pairs_per_request": 2},
        "decode": {"beam_width": 8, "top_k": 4},
        "eval": {"ks": [1, 5], "beam_width": 8},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_all(out):
        for cmd in ("gen-data", "quantize", "analyze", "build-seqs", "train",
                    "align", "decode", "eval"):
            assert cli_main([cmd, "--config", str(cfg_path), "--out", out]) == 0

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_all(out_a)
    run_all(out_b)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            b = fh.read()
        assert a == b, f"artifact {name} differs between runs"
    announce(11, f"two single-threaded pipeline runs produced bit-identical "
                 f"artifacts ({len(names)} files)")
