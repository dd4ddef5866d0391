"""Bigram log-bilinear language model with exact MLE, NCE, and negative sampling.

A deliberately small, fully seeded laboratory: the vocabulary is tiny enough
that the exact softmax is always available as an oracle, so the sampled
objectives can be checked against ground truth rather than trusted.
"""

__version__ = "0.1.0"

from .corpus import (
    BOS_TOKEN,
    GroundTruthTable,
    Vocabulary,
    build_vocab,
    generate_synthetic_corpus,
    generate_synthetic_stream,
    make_zipf_truth,
    pair_count_matrix,
    pairs_from_tokens,
)
from .model import (
    CellCounts,
    Gradient,
    ModelParams,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    init_params,
    load_model,
    log_likelihood,
    grad_log_likelihood,
    save_model,
)
from .nce import NceConfig
from .noise import parse_noise_spec
from .trainer import (
    MetricsRow,
    TrainConfig,
    TrainingDiverged,
    kl_truth_model,
    sweep_runs,
    train,
    train_lockstep,
)

__all__ = [
    "BOS_TOKEN",
    "CellCounts",
    "Gradient",
    "GroundTruthTable",
    "MetricsRow",
    "ModelParams",
    "NceConfig",
    "TrainConfig",
    "TrainingDiverged",
    "Vocabulary",
    "Z_EXACT",
    "Z_FIXED_ONE",
    "Z_LEARNED_ZC",
    "build_vocab",
    "generate_synthetic_corpus",
    "generate_synthetic_stream",
    "grad_log_likelihood",
    "init_params",
    "kl_truth_model",
    "load_model",
    "log_likelihood",
    "make_zipf_truth",
    "pair_count_matrix",
    "pairs_from_tokens",
    "parse_noise_spec",
    "save_model",
    "sweep_runs",
    "train",
    "train_lockstep",
    "__version__",
]
