"""Seeded stochastic gradient ascent over the three objectives.

Plain SGD, no momentum or adaptivity: the point of the artifact is comparing
objectives, so the optimizer is kept identical across them. Each epoch
shuffles the pair multiset with a seeded permutation and, for the sampled
objectives, draws fresh noise from an epoch-derived stream, so runs are
bit-reproducible while noise is still resampled every pass. A step's noise
is k * n_c words from q for each context c it holds n_c pairs of, drawn as
counts: word by word through an alias table while the run's steps hold few
noise words for the vocabulary, else as one multinomial per context, whose
cost does not grow with k (``noise.draws_words``).

Batch updates use the mean gradient over the batch, which keeps the learning
rate comparable across batch sizes.

Independent runs of one shape (a k sweep, seeds) train in lockstep: each
step makes one call per kernel on the stack of their models, and each run
keeps its own shuffle and noise streams, so every run gets the bits it gets
when trained alone. ``train`` is the one-run case of that loop.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import nce, negsampling, noise
from .corpus import MAX_VOCAB_SIZE, GroundTruthTable, pair_count_matrix
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
    per_model,
    zero_gradient,
)
from .seeding import STREAM_NOISE, STREAM_SHUFFLE, derive_rng

OBJ_MLE = "mle_exact"
OBJ_NCE = "nce"
OBJ_NS = "ns"

# Objective -> (the z_mode its models train with, None for the config's;
# gradient (params, counts, cfg, out=None); loss (params, counts, cfg)), with
# cfg the runs' NceConfig, None for MLE. The trainer steps with these, and
# checks.run_gradcheck and run_equiv_check verify these same callables. The
# lambdas look kernels up at call time, so rebinding a module attribute (as
# a tracer or a test does) reaches every caller. MLE's loss is the
# log-likelihood, so its objective metric is minus the cross-entropy.
OBJECTIVES = {
    OBJ_MLE: (Z_EXACT, lambda p, c, cfg, out=None: grad_log_likelihood(p, c, out),
              lambda p, c, cfg: log_likelihood(p, c.true)),
    OBJ_NCE: (None, lambda p, c, cfg, out=None: nce.mc_grad(p, c, cfg, out),
              lambda p, c, cfg: nce.mc_loss(p, c, cfg)),
    # Normalizer parameters have no meaning under negative sampling;
    # freezing them keeps the NCE equivalence checks well-posed. NS reads
    # no config: its logits have no noise term.
    OBJ_NS: (Z_FIXED_ONE, lambda p, c, cfg, out=None: negsampling.ns_grad(p, c, out),
             lambda p, c, cfg: negsampling.ns_loss(p, c)),
}

# Cells one bincount counts at most: an epoch's steps are counted a block of
# consecutive steps at a time (at least one), each step taking one grid of
# (n_words + 1) * n_words cells, so memory stays bounded for any |V| and n.
COUNT_BLOCK_CELLS = 2**13

# Shuffled pair indices one lockstep call holds at most: an epoch keeps one
# permutation of the n pairs per run, so a sweep trains its runs in chunks
# of max(1, LOCKSTEP_PAIRS // n) runs: 32 MB of them, or one run's if more.
LOCKSTEP_PAIRS = 2**22


class TrainingDiverged(RuntimeError):
    """Raised when any parameter goes non-finite, or when an evaluated metric
    does (finite parameters whose scores overflow); names the epoch, the step
    within it (1-based), the first non-finite block or metric and the
    epoch's learning rate."""

    def __init__(self, message: str, epoch: int, step: int, block: str, lr: float):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.block = block
        self.lr = lr


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
        if self.dim > MAX_VOCAB_SIZE:
            raise ValueError(f"dim must be <= {MAX_VOCAB_SIZE}, the vocabulary cap: "
                             "past |V| columns a bilinear score gains no rank")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # An objective with its own z_mode ignores the config's.
        z_modes = Z_MODES if OBJECTIVES[self.objective][0] else (Z_LEARNED_ZC, Z_FIXED_ONE)
        if self.z_mode not in z_modes:
            raise ValueError(f"{self.objective} z_mode must be one of {z_modes}, got {self.z_mode!r}")


# What the runs trained in lockstep share; k, noise, seed and the rates may differ.
LOCKSTEP_FIELDS = ("objective", "z_mode", "dim", "batch_size", "epochs", "eval_every")


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    cross_entropy: float  # nats/token under the exact softmax
    kl_truth: float | None  # mean over contexts; None without a ground truth
    median_abs_log_z: float  # over contexts seen in the training data
    objective: float  # mean per-example value of the configured objective


def train(
    config: TrainConfig,
    pairs: np.ndarray,
    n_words: int,
    truth: GroundTruthTable | None = None,
    on_eval: Callable[[int, int, ModelParams, MetricsRow], None] | None = None,
) -> tuple[ModelParams, list[MetricsRow]]:
    """Run gradient ascent and return final parameters plus metric history.

    Metrics are recorded every ``eval_every`` epochs and at the final epoch,
    and ``on_eval`` sees each row as it is recorded, with run index 0. Fully
    deterministic given the config. The one-run case of :func:`train_lockstep`.
    """
    (result,) = train_lockstep([config], pairs, n_words, truth, on_eval)
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def train_lockstep(
    configs: Sequence[TrainConfig],
    pairs: np.ndarray,
    n_words: int,
    truth: GroundTruthTable | None = None,
    on_eval: Callable[[int, int, ModelParams, MetricsRow], None] | None = None,
) -> list[tuple[ModelParams, list[MetricsRow]] | TrainingDiverged]:
    """Train R runs on the same pairs in lockstep: each SGD step is one call
    per kernel on the stack of their R models.

    The runs share ``LOCKSTEP_FIELDS``. Each keeps its own shuffle and noise
    streams, and every kernel treats the models of a stack independently, so
    run r's result is bitwise what :func:`train` gives for ``configs[r]``
    alone: ``(params, history)``, or the :class:`TrainingDiverged` that
    :func:`train` would raise. The stack keeps its R rows until the call
    returns: a run that diverges is parked, its row zeroed and its rate 0,
    and the others go on; once every run has diverged the call returns.
    ``on_eval(r, epoch, params, row)`` is called right after run r's row is
    appended to its history, never for a diverged run or the epoch it
    diverges in; ``params``, run r's view into the stack, is valid only
    during the call, and an exception it raises propagates. An epoch holds
    R permutations of the pairs: R * n int64 values. ValueError when a
    pair lies outside the count grid (``corpus.pair_count_matrix``) or a
    run's k * n noise words per epoch exceed 2**53, float64's exact integers.
    """
    configs = list(configs)
    pairs = np.asarray(pairs, dtype=np.int64)
    n = pairs.shape[0]
    if not configs:
        raise ValueError("train_lockstep needs at least one config")
    if n == 0:
        raise ValueError("training needs at least one pair")
    first = configs[0]
    _check_lockstep(configs, n)
    batch_size = min(first.batch_size, n)  # a larger batch trains as one full batch
    # Refuses a pair outside the grid before its cell id lands in another cell.
    grid = pair_count_matrix(pairs, n_words)
    z_mode, grad_fn, loss_fn = OBJECTIVES[first.objective]
    cfg = None if first.objective == OBJ_MLE else nce.NceConfig.stack([
        nce.NceConfig(c.k, noise.parse_noise_spec(c.noise, grid)) for c in configs
    ])
    # Each sampled run's draw path is fixed by its shape, its alias table built once.
    tables = None if cfg is None else [
        noise.alias_table(q) if noise.draws_words(c.k, batch_size, n_words) else None
        for c, q in zip(configs, cfg.q)
    ]
    inits = [init_params(n_words, first.dim, c.seed, z_mode=z_mode or first.z_mode) for c in configs]
    models = inits[0].with_vector(np.stack([p.vector for p in inits]))
    runs = [models.with_vector(v) for v in models.vector]  # views of each run's row
    # A lone run steps its one model unstacked, (P,): its kernel calls cost
    # 5-12% less than a stack of one's at the train-* benchmark settings
    # (NCE k 1 54.3 against 60.9 µs a step, NCE k 50 73.9 against 80.6;
    # alternating in-process pairs, see the README). The metrics always
    # take the whole stack.
    sel = 0 if len(configs) == 1 else slice(None)
    model = models.with_vector(models.vector[sel])
    model_cfg = None if cfg is None else cfg[sel]
    grad = zero_gradient(model)

    results: list = [None] * len(configs)  # a run's entry is set when it finishes or diverges
    histories: list[list[MetricsRow]] = [[] for _ in configs]
    for epoch in range(1, first.epochs + 1):
        # A diverged run is parked until the call returns: a zero row stepped
        # at rate 0 stays finite and leaves the others' bits.
        lr = np.array([c.learning_rate * c.lr_decay ** (epoch - 1) if res is None else 0.0
                       for c, res in zip(configs, results)])
        perms = np.empty((len(configs), n), dtype=np.int64)  # one shuffle per run, filled in place
        for r, c in enumerate(configs):
            perms[r] = derive_rng(c.seed, STREAM_SHUFFLE, epoch).permutation(n)
        samplers = None if cfg is None else [
            (q, table, c.k, derive_rng(c.seed, STREAM_NOISE, epoch))
            for c, q, table in zip(configs, cfg.q, tables)
        ]
        totals = np.zeros((len(configs), n_words + 1, n_words), dtype=np.int64)  # the epoch's noise counts
        steps = _epoch_counts(pairs, perms, samplers, batch_size, n_words, totals, sel)
        for step, (size, counts) in enumerate(steps, 1):
            apply_gradient(model, grad_fn(model, counts, model_cfg, grad), lr[sel] / size)
            if not params_finite(model):
                for r, run in enumerate(runs):
                    block = next((b for b in PARAM_BLOCKS if not np.isfinite(getattr(run, b)).all()), None)
                    if block is not None:
                        results[r] = _diverged(epoch, step, "first non-finite block", block, lr[r])
                        run.vector[:] = lr[r] = 0.0
                if all(res is not None for res in results):
                    return results
        if epoch % first.eval_every == 0 or epoch == first.epochs:
            metrics = _metrics(models, grid, truth, loss_fn, cfg, totals, epoch)
            for r, row in enumerate(metrics):
                if results[r] is not None:
                    continue
                metric = next((f for f, v in vars(row).items()
                               if v is not None and not np.isfinite(v)), None)
                if metric is not None:
                    results[r] = _diverged(epoch, step, "non-finite metric", metric, lr[r])
                    runs[r].vector[:] = 0.0
                    continue
                histories[r].append(row)
                if on_eval is not None:
                    on_eval(r, epoch, runs[r], row)
            if all(res is not None for res in results):
                return results
    for r, run in enumerate(runs):
        if results[r] is None:
            results[r] = (run.copy(), histories[r])
    return results


def sweep_runs(
    bases: Sequence[TrainConfig],
    ks: list[int],
    pairs: np.ndarray,
    n_words: int,
    truth: GroundTruthTable,
) -> Iterator[tuple[TrainConfig, MetricsRow]]:
    """One run per (base, k), trained in lockstep a chunk of runs at a time
    (see ``LOCKSTEP_PAIRS``); yields (config, the run's last MetricsRow) in
    (base, k) order, a chunk's runs once the chunk is trained. At the first
    run that diverged it raises TrainingDiverged naming its seed and k, after
    the rows before it, as training the runs one after another would.

    The arguments are checked when it is called: ValueError unless ``ks`` is
    nonempty and strictly ascending, ``bases`` and ``pairs`` are nonempty,
    every pair lies in the count grid, and every (base, k) is a valid config that shares ``LOCKSTEP_FIELDS``,
    whose k * n noise words per epoch are at most 2**53 and, when sampled,
    whose noise spec parses against the pairs' word counts.
    """
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be sorted ascending")
    if not bases:
        raise ValueError("a sweep needs at least one base config")
    if len(pairs) == 0:
        raise ValueError("training needs at least one pair")
    configs = [replace(base, k=k) for base in bases for k in ks]
    _check_lockstep(configs, len(pairs))  # whichever chunks they fall in
    grid = pair_count_matrix(pairs, n_words)  # bad pairs fail before any run trains
    if configs[0].objective != OBJ_MLE:  # and so does a bad noise spec
        for spec in dict.fromkeys(c.noise for c in configs):
            noise.parse_noise_spec(spec, grid)
    chunk = max(1, LOCKSTEP_PAIRS // len(pairs))
    results = (
        result
        for lo in range(0, len(configs), chunk)
        for result in train_lockstep(configs[lo : lo + chunk], pairs, n_words, truth=truth)
    )
    return (_last_row(config, result) for config, result in zip(configs, results))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _check_lockstep(configs: list[TrainConfig], n: int) -> None:
    """Raise unless the runs share ``LOCKSTEP_FIELDS`` and, when sampled, the
    k noise words for each of an epoch's n pairs are at most 2**53: then
    every count a run holds, a step's float64 or the epoch's int64, is exact."""
    first = configs[0]
    if any(getattr(c, f) != getattr(first, f) for c in configs for f in LOCKSTEP_FIELDS):
        raise ValueError(f"runs trained in lockstep must share {', '.join(LOCKSTEP_FIELDS)}")
    if first.objective != OBJ_MLE and (k := max(c.k for c in configs)) * n > 2**53:
        raise ValueError(f"k={k} is too large: k noise words for each of an epoch's {n} "
                         "pairs exceed 2**53, past which float64 counts are inexact")


def _last_row(config: TrainConfig, result) -> tuple[TrainConfig, MetricsRow]:
    """(config, last row) of a finished sweep run; a diverged one raises, naming its seed and k."""
    if isinstance(result, TrainingDiverged):
        raise TrainingDiverged(
            f"seed={config.seed}, k={config.k}: {result}",
            result.epoch, result.step, result.block, result.lr,
        ) from result
    return config, result[1][-1]


def _diverged(epoch: int, step: int, kind: str, name: str, lr) -> TrainingDiverged:
    return TrainingDiverged(
        f"training diverged at epoch {epoch}, step {step}: {kind} {name} (lr {lr:.9g})",
        epoch, step, name, float(lr),
    )


def _epoch_counts(pairs, perms, samplers, batch_size, n_words, totals, sel):
    """Yield (batch size, CellCounts) for each step of one epoch of R runs,
    run r's pairs in ``perms[r]`` order (``perms`` of (R, n)), and add every
    step's noise counts into ``totals``, (R, n_contexts, n_words).

    A block of consecutive steps is counted by one bincount over cell ids
    ``context * n_words + word``, run r's j-th step shifted by j * R + r
    grids, and its per-step context totals n_c by one bincount over those
    ids' context rows. Each context c of a run's step then gets k * n_c
    noise words from its q, drawn as counts by one ``sample_array`` call
    per run and block, from the run's ``samplers`` entry (q, alias table,
    k, generator): word by word through the table, or without one (None)
    as one multinomial per row; either way a block's call gives the bits
    of one call per step.
    The block's counts are cast to float64 once, T and N each contiguous,
    and form one CellCounts, so its totals and halves are computed once per
    block; each step gets views of it, (R, n_contexts, n_words) grids
    indexed by ``sel``: all runs, or 0 for a lone run stepped unstacked.
    Without samplers (exact MLE) nothing is drawn, the noise counts are
    None, and the block carries n_c as its float64 ``context_totals``.
    """
    n_runs = len(perms)
    grid = (n_words + 1) * n_words
    cells = pairs[:, 0] * n_words + pairs[:, 1]
    # A block never holds more rows than the epoch, so a batch larger than
    # the data allocates by the data.
    rows = min(max(1, COUNT_BLOCK_CELLS // grid) * batch_size, perms.shape[1])
    offsets = (np.arange(rows) // batch_size * n_runs + np.arange(n_runs)[:, None]) * grid
    for lo in range(0, perms.shape[1], rows):
        idx = perms[:, lo : lo + rows]
        n_steps = -(-idx.shape[1] // batch_size)
        ids = (cells[idx] + offsets[:, : idx.shape[1]]).ravel()
        true = np.bincount(ids, minlength=n_steps * n_runs * grid)
        true = true.reshape(n_steps, n_runs, n_words + 1, n_words)
        counts = np.empty((1 if samplers is None else 2, *true.shape))
        counts[0] = true
        # id // n_words is the id of the (step, run, context) row.
        n_c = np.bincount(ids // n_words, minlength=n_steps * n_runs * (n_words + 1))
        n_c = n_c.reshape(n_steps, n_runs, n_words + 1)
        if samplers is None:
            block = CellCounts(counts[0], None)
            # Every step holds at least one pair, so no grid is empty.
            block.context_totals = n_c[..., None].astype(np.float64)
        else:
            for r, (q, table, k, rng) in enumerate(samplers):
                drawn = noise.sample_array(q, k * n_c[:, r], rng, table)
                totals[r] += drawn.sum(axis=0)
                counts[1, :, r] = drawn
            block = CellCounts(counts[0], counts[1])
        for j, step in enumerate(block.unstack(sel)):
            yield min(batch_size, idx.shape[1] - j * batch_size), step


def _metrics(params, grid, truth, loss_fn, cfg, noise_total, epoch) -> list[MetricsRow]:
    """One row per model of the stack ``params`` on the pair count grid, its
    noise counts ``noise_total[r]``; ``loss_fn`` and ``cfg`` as in ``OBJECTIVES``."""
    ce = cross_entropy(params, grid)
    kl = [None] * len(ce) if truth is None else kl_truth_model(truth, params)
    seen = np.flatnonzero(grid.sum(axis=1))  # contexts that occur
    med_z = np.median(np.abs(log_partitions(params)[..., seen]), axis=-1)
    obj = loss_fn(params, CellCounts(grid, noise_total), cfg) / grid.sum()
    return [
        MetricsRow(epoch=epoch, cross_entropy=float(c), kl_truth=None if k is None else float(k),
                   median_abs_log_z=float(m), objective=float(o))
        for c, k, m, o in zip(ce, kl, med_z, obj)
    ]


def kl_truth_rows(truth: GroundTruthTable, params: ModelParams) -> np.ndarray:
    """KL(truth row || model row) for each word context, in nats: (n_words,),
    or (R, n_words) for a stack of R models."""
    logp = log_softmax_matrix(params)[..., : truth.n_words, :]
    t = truth.cond
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * (np.log(t) - logp), 0.0)
    return terms.sum(axis=-1)


def kl_truth_model(truth: GroundTruthTable, params: ModelParams) -> float | np.ndarray:
    """Unweighted mean of kl_truth_rows, per model."""
    return per_model(kl_truth_rows(truth, params).mean(axis=-1))


def cross_entropy(params: ModelParams, counts: np.ndarray) -> float | np.ndarray:
    """Mean negative log probability per pair under the exact softmax, for
    the pairs counted in ``counts``, (n_contexts, n_words); per model."""
    return per_model(-log_likelihood(params, counts) / counts.sum())


# ---------------------------------------------------------------------------
# Metrics file format
# ---------------------------------------------------------------------------

METRICS_HEADER = "epoch,cross_entropy,kl_truth,median_abs_log_z,objective,seconds"


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """Stable CSV of the metric history, 9 significant digits.

    ``kl_truth`` is left empty when no ground truth was supplied. The last
    column, ``seconds``, is always 0: the trainer reads no clock, since
    wall-clock time would break same-seed byte identity, and the column
    stays so that files keep the layout earlier versions wrote.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in rows:
            kl = "" if row.kl_truth is None else f"{row.kl_truth:.9g}"
            fh.write(
                f"{row.epoch},{row.cross_entropy:.9g},{kl},"
                f"{row.median_abs_log_z:.9g},{row.objective:.9g},0\n"
            )
