"""sidforge: exposure-balanced semantic IDs with attribute-prefixed decoding.

A desk-scale generative-retrieval stack: capacity-repaired residual
quantization of item embeddings, attribute-chain token sequences with
task-conditioned BOS and hashed content summaries, a small analytically
differentiated autoregressive scorer with next-token / advantage-reweighted
/ preference-pair objectives, and trie-constrained beam decoding.
"""

from .alignment import (
    PreferencePair,
    build_dpo_pairs,
    composite_reward,
    dpo_loss_and_grad,
    joint_loss,
    normalize_advantages,
    preference_level,
    rft_loss_and_grad,
)
from .analysis import (
    DiscreteJoint,
    bayes_rank_check,
    cascading_error,
    conditional_entropy,
    entropy_reduction,
    exposure_concentration,
    random_discrete_joint,
)
from .corpus import (
    Interaction,
    Item,
    ItemCorpus,
    SynthConfig,
    generate_corpus,
    generate_interactions,
)
from .decoder import Candidate, PathTrie, beam_search, build_trie
from .evaluation import EvalReport, bs_hit_ratio, evaluate_model, token_hr3
from .pipeline import RunConfig, ablation_run, load_config, run_pipeline
from .quantizer import (
    Codebook,
    RQResult,
    SemanticId,
    capacity_constrained_rq,
    capacity_kmeans_layer,
    kmeanspp_init,
    rq_kmeans_baseline,
)
from .scorer import (
    NeuralSequenceModel,
    Sample,
    ScorerConfig,
    ScorerParams,
    init_scorer,
    ntp_loss_and_grad,
    train_epoch,
)
from .tokenizer import (
    HashSpec,
    SequenceSpace,
    build_sequence,
    hash_table_size,
    task_bos_token,
)

__version__ = "0.1.0"
