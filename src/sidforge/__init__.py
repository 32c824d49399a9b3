"""sidforge: exposure-balanced semantic IDs with attribute-prefixed decoding.

A desk-scale generative-retrieval stack: capacity-repaired residual
quantization of item embeddings, attribute-chain token sequences with
task-conditioned BOS and hashed content summaries, a small analytically
differentiated autoregressive scorer with next-token / advantage-reweighted
/ preference-pair objectives, and trie-constrained beam decoding.

The package root exports nothing: import a module, e.g. ``sidforge.pipeline``.
"""
