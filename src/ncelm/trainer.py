"""Seeded stochastic gradient ascent over the three objectives.

Plain SGD, no momentum or adaptivity: the point of the artifact is comparing
objectives, so the optimizer is kept identical across them. Each epoch
shuffles the pair multiset with a seeded permutation and, for the sampled
objectives, draws fresh noise from an epoch-derived stream, so runs are
bit-reproducible while noise is still resampled every pass. A step's noise
is drawn as counts, k * n_c words from q for each context c it holds n_c
pairs of, so its cost does not grow with k.

Batch updates use the mean gradient over the batch, which keeps the learning
rate comparable across batch sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import nce, negsampling, noise
from .corpus import GroundTruthTable, Vocabulary, stats_from_pairs
from .model import (
    PARAM_BLOCKS,
    CellCounts,
    ModelParams,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    Z_MODES,
    apply_gradient,
    grad_log_likelihood,
    init_params,
    log_likelihood,
    log_partitions,
    log_softmax_matrix,
    params_finite,
    save_model,
)
from .seeding import STREAM_NOISE, STREAM_SHUFFLE, derive_rng

OBJ_MLE = "mle_exact"
OBJ_NCE = "nce"
OBJ_NS = "ns"
OBJECTIVES = (OBJ_MLE, OBJ_NCE, OBJ_NS)

# Cells one bincount counts at most: an epoch's steps are counted a block of
# consecutive steps at a time (at least one), each step taking one grid of
# (n_words + 1) * n_words cells, so memory stays bounded for any |V| and n.
COUNT_BLOCK_CELLS = 2**13


class TrainingDiverged(RuntimeError):
    """Raised when any parameter goes non-finite, or when an evaluated metric
    does (finite parameters whose scores overflow); names the epoch, the step
    within it (1-based) and the first non-finite block or metric."""

    def __init__(self, message: str, epoch: int, step: int, block: str):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.block = block


@dataclass(frozen=True)
class TrainConfig:
    objective: str
    k: int = 5
    z_mode: str = Z_FIXED_ONE  # NCE only; NS freezes normalizers, MLE ignores them
    noise: str = "uniform"
    learning_rate: float = 0.5
    lr_decay: float = 0.98
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 10
    dim: int = 16

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, and eval_every must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        z_modes = (Z_LEARNED_ZC, Z_FIXED_ONE) if self.objective == OBJ_NCE else Z_MODES
        if self.z_mode not in z_modes:
            raise ValueError(f"{self.objective} z_mode must be one of {z_modes}, got {self.z_mode!r}")


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    cross_entropy: float  # nats/token under the exact softmax
    kl_truth: float | None  # mean over contexts; None without a ground truth
    median_abs_log_z: float  # over contexts seen in the training data
    objective: float  # mean per-example value of the configured objective
    seconds: float  # wall-clock since training started


@dataclass(frozen=True)
class SweepRow:
    k: int
    final_kl: float
    final_ce: float
    median_abs_log_z: float


def train(
    config: TrainConfig,
    pairs: np.ndarray,
    n_words: int,
    truth: GroundTruthTable | None = None,
    vocab: Vocabulary | None = None,
    checkpoint_prefix: str | None = None,
) -> tuple[ModelParams, list[MetricsRow]]:
    """Run gradient ascent and return final parameters plus metric history.

    Metrics are recorded every ``eval_every`` epochs and at the final epoch;
    checkpoints (needing ``vocab``) are written at the same epochs. Fully
    deterministic given the config.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.shape[0] == 0:
        raise ValueError("training needs at least one pair")
    if checkpoint_prefix is not None and vocab is None:
        raise ValueError("checkpoints need a vocabulary")
    stats = stats_from_pairs(pairs, n_words)
    params = init_params(n_words, config.dim, config.seed, z_mode=_params_z_mode(config))
    cfg = None
    q = None
    if config.objective in (OBJ_NCE, OBJ_NS):
        q = noise.parse_noise_spec(config.noise, stats, n_words)
        if config.objective == OBJ_NCE:
            cfg = nce.NceConfig(k=config.k, z_mode=config.z_mode, q=q)

    n = pairs.shape[0]
    history: list[MetricsRow] = []
    start = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate * config.lr_decay ** (epoch - 1)
        perm = derive_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        noise_rng = None if q is None else derive_rng(config.seed, STREAM_NOISE, epoch)
        total = np.zeros((n_words + 1, n_words), dtype=np.int64)  # the epoch's noise counts
        steps = _epoch_counts(pairs, perm, q, config.k, noise_rng, config.batch_size, n_words, total)
        for step, (size, counts) in enumerate(steps, 1):
            if config.objective == OBJ_MLE:
                grad = grad_log_likelihood(params, counts.true)
            elif config.objective == OBJ_NCE:
                grad = nce.mc_grad(params, counts, cfg)
            else:
                grad = negsampling.ns_grad(params, counts)
            apply_gradient(params, grad, lr / size)
            if not params_finite(params):
                block = next(b for b in PARAM_BLOCKS if not np.isfinite(getattr(params, b)).all())
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, step {step}: "
                    f"first non-finite block {block}", epoch, step, block,
                )
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            row = _metrics(params, stats, truth, config, cfg, total, epoch, start)
            metric = next((f for f, v in vars(row).items() if v is not None and not np.isfinite(v)), None)
            if metric is not None:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, step {step}: "
                    f"non-finite metric {metric}", epoch, step, metric,
                )
            history.append(row)
            if checkpoint_prefix is not None:
                save_model(f"{checkpoint_prefix}.ep{epoch}.model", params, vocab)
    return params, history


def sweep_k(
    base: TrainConfig,
    ks: list[int],
    pairs: np.ndarray,
    n_words: int,
    truth: GroundTruthTable,
) -> list[SweepRow]:
    """One training run per k, all other settings and seeds identical."""
    check_ks(ks)
    rows = []
    for k in ks:
        try:
            _, history = train(replace(base, k=k), pairs, n_words, truth=truth)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"k={k}: {exc}", exc.epoch, exc.step, exc.block) from exc
        last = history[-1]
        rows.append(
            SweepRow(
                k=k,
                final_kl=last.kl_truth,
                final_ce=last.cross_entropy,
                median_abs_log_z=last.median_abs_log_z,
            )
        )
    return rows


def check_ks(ks: list[int]) -> None:
    """Raise ValueError unless ``ks`` is nonempty and strictly ascending."""
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be sorted ascending")


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _params_z_mode(config: TrainConfig) -> str:
    if config.objective == OBJ_MLE:
        return Z_EXACT
    if config.objective == OBJ_NS:
        # Normalizer parameters have no meaning under negative sampling;
        # freezing them keeps the NCE equivalence checks well-posed.
        return Z_FIXED_ONE
    return config.z_mode


def _epoch_counts(pairs, perm, q, k, rng, batch_size, n_words, total):
    """Yield (batch size, CellCounts) for each step of one epoch, in ``perm``
    order, and add every step's noise counts into ``total``, (n_contexts, n_words).

    A block of consecutive steps is counted by one bincount over cell ids
    ``context * n_words + word``, the j-th step's ids shifted by j grids.
    Each context c of a step then gets k * n_c noise words from q, drawn as
    counts by one ``sample_array`` call per block. Without q (exact MLE)
    nothing is drawn and the noise counts are None.
    """
    grid = (n_words + 1) * n_words
    cells = pairs[:, 0] * n_words + pairs[:, 1]
    rows = max(1, COUNT_BLOCK_CELLS // grid) * batch_size
    offsets = np.arange(rows) // batch_size * grid
    for lo in range(0, perm.size, rows):
        idx = perm[lo : lo + rows]
        n_steps = -(-idx.size // batch_size)
        true = np.bincount(cells[idx] + offsets[: idx.size], minlength=n_steps * grid)
        true = true.reshape(n_steps, n_words + 1, n_words)
        if q is None:
            noise_counts = [None] * n_steps
        else:
            noise_counts = noise.sample_array(q, k * true.sum(axis=2), rng)
            total += noise_counts.sum(axis=0)
        for j, step_noise in enumerate(noise_counts):
            yield min(batch_size, idx.size - j * batch_size), CellCounts(true[j], step_noise)


def _metrics(params, stats, truth, config, cfg, noise_total, epoch, start):
    n = stats.total_tokens
    ce = cross_entropy(params, stats.bigram_counts)
    kl = None if truth is None else kl_truth_model(truth, params)
    med_z = float(np.median(np.abs(log_partitions(params)[stats.seen_contexts()])))
    counts = CellCounts(stats.bigram_counts, noise_total)
    if config.objective == OBJ_MLE:
        obj = -ce
    elif config.objective == OBJ_NCE:
        obj = nce.mc_loss(params, counts, cfg) / n
    else:
        obj = negsampling.ns_loss(params, counts) / n
    return MetricsRow(
        epoch=epoch,
        cross_entropy=ce,
        kl_truth=kl,
        median_abs_log_z=med_z,
        objective=float(obj),
        seconds=time.perf_counter() - start,
    )


def kl_truth_rows(truth: GroundTruthTable, params: ModelParams) -> np.ndarray:
    """KL(truth row || model row) for each word context, in nats."""
    logp = log_softmax_matrix(params)[: truth.n_words]
    t = truth.cond
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * (np.log(t) - logp), 0.0)
    return terms.sum(axis=1)


def kl_truth_model(truth: GroundTruthTable, params: ModelParams) -> float:
    """Unweighted mean of kl_truth_rows."""
    return float(kl_truth_rows(truth, params).mean())


def cross_entropy(params: ModelParams, counts: np.ndarray) -> float:
    """Mean negative log probability per pair under the exact softmax, for
    the pairs counted in ``counts``, (n_contexts, n_words)."""
    return float(-log_likelihood(params, counts) / counts.sum())


# ---------------------------------------------------------------------------
# Metrics file format
# ---------------------------------------------------------------------------

METRICS_HEADER = "epoch,cross_entropy,kl_truth,median_abs_log_z,objective,seconds"


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """Stable CSV of the metric history, 9 significant digits.

    ``kl_truth`` is left empty when no ground truth was supplied. The
    ``seconds`` column is written as 0: output files are part of the
    deterministic byte-for-byte reproducibility contract, and wall-clock
    time is not reproducible. Measured timings live on the in-memory rows.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in rows:
            kl = "" if row.kl_truth is None else f"{row.kl_truth:.9g}"
            fh.write(
                f"{row.epoch},{row.cross_entropy:.9g},{kl},"
                f"{row.median_abs_log_z:.9g},{row.objective:.9g},0\n"
            )
