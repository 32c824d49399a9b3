# End to end at desk scale: quantize a corpus, prefix each item's codes
# with its category tokens, train the scorer on logged engagements, and
# decode ranked candidates through the path trie.

from sidforge import pipeline
from sidforge.corpus import generate_corpus, generate_interactions
from sidforge.decoder import beam_search, build_trie
from sidforge.evaluation import evaluate_model
from sidforge.scorer import NeuralSequenceModel
from sidforge.tokenizer import task_bos_token

cfg = pipeline.load_config({
    "seed": 3,
    "corpus": {"n_items": 400, "d_emb": 16, "n_clusters_true": 8,
               "attr_correlation": 0.9, "n_requests": 1200,
               "events_per_request": 4, "seed": 3},
    "quantizer": {"n_layers": 3, "k": 16, "tau": 1.2},
    "tokenizer": {"attr_chain": ["l2", "l3"], "d_hash": 8},
    "scorer": {"d_model": 32, "max_behavior_len": 12},
    "train": {"epochs": 3, "lr": 3e-3, "batch_size": 64},
    "eval": {"ks": [1, 5, 10], "beam_width": 24},
})

corp = generate_corpus(cfg.corpus)
log = generate_interactions(corp, cfg.corpus)
rq = pipeline.run_quantizer(cfg, corp)
space, paths = pipeline.build_sequences(cfg, corp, rq.sids)
train_set, eval_set = pipeline.assemble_samples(cfg, corp, log, space, paths)
print(f"{len(paths)} item paths over {space.n_steps} steps "
      f"({space.m} attribute + {space.n_layers} code)")
print(f"{len(train_set)} training samples, {len(eval_set)} held-out")

params = pipeline.init_model(cfg, corp, space)
params, trace = pipeline.train_model(cfg, params, train_set)
print(f"train loss per sample: {trace[0]:.3f} -> {trace[-1]:.3f}")

trie = build_trie(paths)
report = evaluate_model(params, trie, eval_set, ks=cfg.eval.ks,
                        beam_width=cfg.eval.beam_width)
print(f"\ntoken HR@3 per step: "
      + ", ".join(f"{k}={v:.3f}" for k, v in report.token_hr3.items()))
print("beam HR@K: " + ", ".join(f"@{k}={v:.3f}" for k, v in report.hr_at.items()))

# decode for one user context
sample = eval_set[0]
model = NeuralSequenceModel(params, sample.behavior, sample.bos)
print(f"\ntop candidates for one held-out context (target item {sample.target_item}):")
for cand in beam_search(model, trie, beam_width=24, top_k=5):
    print(f"  path={cand.path} logprob={cand.logprob:7.3f} items={cand.item_ids[:4]}")

# decoding conditions on the task token too: swap the objective/scene and
# the same trie is re-scored under that context
other_bos = task_bos_token("purchase", "flash_sale", space)
other = NeuralSequenceModel(params, sample.behavior, other_bos)
alt = beam_search(other, trie, beam_width=24, top_k=1)[0]
print(f"same user, purchase/flash_sale task -> top path {alt.path} "
      f"(logprob {alt.logprob:.3f})")
