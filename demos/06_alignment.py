# Aligning the trained scorer with business value: composite rewards are
# normalized into clipped per-batch advantages that reweight the
# next-token loss (RFT), while request-grouped preference pairs feed a
# contrastive objective against a frozen reference (DPO).  Both combine
# into one joint step.

import numpy as np

from sidforge import pipeline
from sidforge.alignment import (
    batch_rewards,
    build_dpo_pairs,
    dpo_loss_and_grad,
    joint_loss,
    normalize_advantages,
    rft_loss_and_grad,
)
from sidforge.corpus import generate_corpus, generate_interactions
from sidforge.scorer import clone_params, ntp_loss_and_grad

cfg = pipeline.load_config({
    "seed": 3,
    "corpus": {"n_items": 300, "d_emb": 16, "n_clusters_true": 8,
               "attr_correlation": 0.9, "n_requests": 800,
               "events_per_request": 4, "seed": 3},
    "quantizer": {"n_layers": 3, "k": 16, "tau": 1.2},
    "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 8},
    "scorer": {"d_model": 32, "max_behavior_len": 12},
    "train": {"epochs": 2, "lr": 3e-3, "batch_size": 64},
    "align": {"pairs_per_request": 3},
})
corp = generate_corpus(cfg.corpus)
log = generate_interactions(corp, cfg.corpus)
rq = pipeline.run_quantizer(cfg, corp)
space, paths = pipeline.build_sequences(cfg, corp, rq.sids)
train_set, _ = pipeline.assemble_samples(cfg, corp, log, space, paths)
params = pipeline.init_model(cfg, corp, space)
params, _ = pipeline.train_model(cfg, params, train_set)

# rewards -> advantages
batch = train_set[:16]
weights = {"gmv": 0.7, "watch_time": 0.3}
rewards = batch_rewards([s.metrics for s in batch], weights)
adv = normalize_advantages(rewards, c_clip=3.0, eps=1e-8)
print("rewards:    " + " ".join(f"{r:5.2f}" for r in rewards[:8]))
print("advantages: " + " ".join(f"{a:5.2f}" for a in adv[:8]))

loss_ntp, _ = ntp_loss_and_grad(batch, params)
loss_rft, _ = rft_loss_and_grad(batch, adv, 0.2, params)
print(f"\nNTP loss {loss_ntp:.2f} vs advantage-reweighted loss {loss_rft:.2f}")

# request-grouped preference pairs against a frozen reference snapshot
reference = clone_params(params)
contexts = pipeline.request_contexts(cfg, log, space)
pairs = build_dpo_pairs(log, paths, contexts, per_request_cap=3, seed=0)
print(f"\n{len(pairs)} preference pairs "
      f"(example: item {pairs[0].winner_item} level {pairs[0].winner_level} "
      f"over item {pairs[0].loser_item} level {pairs[0].loser_level})")

loss_dpo, grads = dpo_loss_and_grad(pairs[:32], params, reference, beta=0.1,
                                    stop_grad=True)
print(f"DPO loss at the reference snapshot: {loss_dpo:.6f} (= ln 2 exactly)")
active = [t for t in range(1, space.n_steps + 1)
          if np.any(grads[f"head_w_{t}"] != 0)]
print(f"rank heads receiving gradient under stop-gradient: steps {active}")

loss_joint, _ = joint_loss(batch, pairs[:32], params, reference, adv,
                           lam=0.2, beta=0.1, lambda_rft=1.0, lambda_dpo=0.15)
print(f"\njoint objective (RFT + 0.15 * DPO): {loss_joint:.2f}")
