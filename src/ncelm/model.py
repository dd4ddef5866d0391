"""Log-bilinear scorer, exact partition function, and the softmax oracle.

The scorer is ``s(w, c) = target_emb[w] . context_emb[c] + bias[w]``: the
smallest differentiable form whose parameters are shared across the exact
softmax objective and the sampling-based estimators layered on top.
``exp(s)`` is the unnormalized weight; dividing by the per-context partition
function ``Z(c)`` yields the normalized model. Everything here is computed
exactly (full-vocabulary sums with max-shifted reductions), which is what
makes this module usable as the oracle the estimators are judged against.

Each model carries one log-normalizer per context (``log_zc``), and its
``z_mode``, which every objective reads from it: unused (exact softmax), learned
for ``log Z(c)``, or pinned to zero so the classifier must self-normalize.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from functools import cached_property

import numpy as np

from .corpus import (Vocabulary, build_vocab, check_line_count, check_vocab_cap, format_row,
                     parse_rows, read_lines)
from .seeding import STREAM_INIT, derive_rng

Z_EXACT = "exact"
Z_LEARNED_ZC = "learned_zc"
Z_FIXED_ONE = "fixed_one"
Z_MODES = (Z_EXACT, Z_LEARNED_ZC, Z_FIXED_ONE)

PARAM_BLOCKS = ("target_emb", "context_emb", "bias", "log_zc")


class _FlatBlocks:
    """The four ``PARAM_BLOCKS`` arrays as views into a float64 ``vector`` of
    shape (..., P), one model per leading index, in ``PARAM_BLOCKS`` order.
    Write to a block in place; rebinding it would detach it from the vector.
    """

    def __init__(self, vector: np.ndarray, n_words: int, dim: int):
        a = n_words * dim
        b = a + (n_words + 1) * dim
        lead = vector.shape[:-1]
        self.vector = vector
        self.target_emb = vector[..., :a].reshape(*lead, n_words, dim)  # (..., n_words, dim)
        self.context_emb = vector[..., a:b].reshape(*lead, n_words + 1, dim)  # (..., n_words + 1, dim)
        self.bias = vector[..., b : b + n_words]  # (..., n_words)
        self.log_zc = vector[..., b + n_words :]  # (..., n_words + 1)

    @property
    def n_words(self) -> int:
        return self.target_emb.shape[-2]

    @property
    def dim(self) -> int:
        return self.target_emb.shape[-1]


class ModelParams(_FlatBlocks):
    """All trainable state. Context row ``n_words`` belongs to ``<s>``.

    The constructor copies the four blocks into one fresh vector.
    """

    def __init__(self, target_emb, context_emb, bias, log_zc, z_mode: str):
        blocks = (target_emb, context_emb, bias, log_zc)
        vector = np.concatenate([np.ravel(b) for b in blocks], dtype=np.float64)
        super().__init__(vector, *np.shape(target_emb))
        self.z_mode = z_mode

    @property
    def n_contexts(self) -> int:
        return self.context_emb.shape[-2]

    def copy(self) -> "ModelParams":
        return self.with_vector(self.vector.copy())

    def with_vector(self, vector: np.ndarray) -> "ModelParams":
        """Models of this one's shape and z_mode over ``vector``, (..., P), not copied."""
        other = copy.copy(self)
        _FlatBlocks.__init__(other, vector, self.n_words, self.dim)
        return other


class Gradient(_FlatBlocks):
    """Partial derivatives, shape-matched to a ModelParams."""


def zero_gradient(params: ModelParams) -> Gradient:
    return Gradient(np.zeros(params.vector.shape), params.n_words, params.dim)


def init_params(n_words: int, dim: int, seed: int, z_mode: str = Z_EXACT) -> ModelParams:
    """Seeded init: embeddings uniform in [-0.1, 0.1], bias and log_zc zero."""
    if z_mode not in Z_MODES:
        raise ValueError(f"unknown z_mode {z_mode!r}")
    rng = derive_rng(seed, STREAM_INIT)
    return ModelParams(
        target_emb=rng.uniform(-0.1, 0.1, size=(n_words, dim)),
        context_emb=rng.uniform(-0.1, 0.1, size=(n_words + 1, dim)),
        bias=np.zeros(n_words),
        log_zc=np.zeros(n_words + 1),
        z_mode=z_mode,
    )


def apply_gradient(params: ModelParams, grad: Gradient, scale) -> None:
    """In-place ascent step ``params += scale * grad``; for a stack of R
    models ``scale`` may hold one value per model, (R,).

    The per-context normalizers move only in learned mode; in the other modes
    they are frozen at their current values (zero for fixed-one models).
    """
    end = None if params.z_mode == Z_LEARNED_ZC else -params.n_contexts
    # Transposed, the parameter axis comes first and a rate per model
    # broadcasts along the model axis.
    params.vector.T[:end] += scale * grad.vector.T[:end]


def params_finite(params: ModelParams) -> bool:
    """Whether every parameter of a model, or of a whole stack, is finite."""
    return bool(np.logical_and.reduce(np.isfinite(params.vector), axis=None))


# ---------------------------------------------------------------------------
# Scoring and exact probabilities, every context at once
# ---------------------------------------------------------------------------

def score_matrix(params: ModelParams) -> np.ndarray:
    """Score of every word after every context, (..., n_contexts, n_words)."""
    return params.context_emb @ params.target_emb.mT + params.bias[..., None, :]


def log_partitions(params: ModelParams) -> np.ndarray:
    """log Z(c) of every context via a max-shifted reduction, (..., n_contexts)."""
    s = score_matrix(params)
    m = s.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(s - m).sum(axis=-1, keepdims=True)))[..., 0]


def log_softmax_matrix(params: ModelParams) -> np.ndarray:
    """log p(w | c) of every word after every context, (..., n_contexts, n_words)."""
    s = score_matrix(params)
    m = s.max(axis=-1, keepdims=True)
    return s - m - np.log(np.exp(s - m).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Exact maximum-likelihood oracle
# ---------------------------------------------------------------------------

class CellCounts:
    """A sampled batch as true and noise sample counts per (context, word)
    cell, T and N, each (n_contexts, n_words), or (..., n_contexts, n_words)
    with one grid per leading index (per model of a stack, or per step and
    model of a trainer's block): the one batch type of the sampled
    objectives and their gradients, which depend on nothing else. Exact MLE
    has no noise: the trainer leaves its ``noise`` None, and a caller
    holding one grid wraps it as ``CellCounts(grid, None)``. It unpacks as
    ``(true, noise)``.

    Next to T and N it carries what the kernels read of them, each derived
    on first use for every leading index at once. The two-class kernels
    read the per-grid totals ``true_total`` = sum T and ``noise_total`` =
    sum N, of the leading shape, and the halves ``half_diff`` = (T - N)/2
    and ``half_sum`` = (T + N)/2, float64. The exact gradient reads the row
    totals ``context_totals`` = n_c of T, float64 (..., n_contexts, 1),
    checked once: ValueError if a grid holds no pair. T and N are held, not
    copied, so a caller changes them only before the first use.
    """

    def __init__(self, true: np.ndarray, noise: np.ndarray | None):
        self.true = true
        self.noise = noise

    def __iter__(self):
        return iter((self.true, self.noise))

    @cached_property
    def true_total(self):
        return _grid_sums(self.true)

    @cached_property
    def noise_total(self):
        return _grid_sums(self.noise)

    @cached_property
    def half_diff(self) -> np.ndarray:
        half = np.subtract(self.true, self.noise, dtype=np.float64)
        half *= 0.5
        return half

    @cached_property
    def half_sum(self) -> np.ndarray:
        half = np.add(self.true, self.noise, dtype=np.float64)
        half *= 0.5
        return half

    @cached_property
    def context_totals(self) -> np.ndarray:
        return context_totals(self.true, "grad_log_likelihood").astype(np.float64, copy=False)

    def unstack(self, sel) -> Iterator["CellCounts"]:
        """One CellCounts per index of the first leading axis, ``sel`` then
        indexing the next (0 picks one model's grids, ``slice(None)`` keeps
        the stack): views of T, N and of the derived fields its objective
        reads, computed once for the whole of this one, not per view: the
        two-class fields when N is given, else the context totals."""
        if self.noise is None:
            for true, n_c in zip(self.true[:, sel], self.context_totals[:, sel]):
                view = CellCounts(true, None)
                view.context_totals = n_c
                yield view
            return
        fields = (self.true, self.noise, self.true_total, self.noise_total, self.half_diff, self.half_sum)
        for true, noise, true_total, noise_total, half_diff, half_sum in zip(*(a[:, sel] for a in fields)):
            view = CellCounts(true, noise)
            view.true_total, view.noise_total = true_total, noise_total
            view.half_diff, view.half_sum = half_diff, half_sum
            yield view


def _grid_sums(counts: np.ndarray):
    """Sum of each (n_contexts, n_words) grid, of the leading shape."""
    return np.add.reduce(counts.reshape(*counts.shape[:-2], -1), axis=-1)


def context_totals(counts: np.ndarray, caller: str) -> np.ndarray:
    """Row sums n_c of a count grid, (..., n_contexts, 1); ValueError if all
    of a grid's are 0."""
    n_c = np.add.reduce(counts, axis=-1, keepdims=True)
    seen = np.logical_or.reduce(n_c, axis=-2)  # per grid, (..., 1)
    if not (seen if n_c.ndim == 2 else np.logical_and.reduce(seen, axis=None)):
        raise ValueError(f"{caller} needs at least one pair")
    return n_c


def per_model(values: np.ndarray) -> float | np.ndarray:
    """A float for one model, the (R,) array of a stack of R models."""
    return float(values) if np.ndim(values) == 0 else values


def grid_dot(counts: np.ndarray, grid: np.ndarray) -> float | np.ndarray:
    """Per model, ``sum(counts * grid)`` over the last two axes as np.vdot sums it."""
    return per_model(np.vecdot(counts.reshape(*counts.shape[:-2], -1),
                               grid.reshape(*grid.shape[:-2], -1)))


def log_likelihood(params: ModelParams, counts: np.ndarray) -> float | np.ndarray:
    """Total log probability under the exact softmax model of the pairs
    counted in ``counts``, (n_contexts, n_words): ``corpus.pair_count_matrix``
    of a pair array; for a stack one grid for all models or one per model,
    (..., n_contexts, n_words). A context without a pair adds 0 whatever its
    log p row holds, so no ``0 * -inf`` is summed."""
    seen = context_totals(counts, "log_likelihood") > 0
    return grid_dot(counts, np.where(seen, log_softmax_matrix(params), 0.0))


def grad_log_likelihood(
    params: ModelParams, counts: CellCounts, out: Gradient | None = None
) -> Gradient:
    """Exact gradient of :func:`log_likelihood` for the pairs counted in
    ``counts.true``, one count grid per model for a stack or one for all,
    with their row totals ``counts.context_totals``. ``out`` as in
    :func:`residual_gradient`.

    Per pair the score of the observed word goes up and the expected score
    under the model distribution comes down; accumulated over the multiset
    this reduces to the residual counts ``N(c, .) - n_c * p(. | c)``. The
    score grid s becomes that residual in place, with p(w | c) formed as
    ``exp(s - max_w s) / sum_w exp(s - max_w s)`` over each row.
    """
    n_c = counts.context_totals
    grid = params.context_emb @ params.target_emb.mT
    grid += params.bias[..., None, :]  # the score matrix
    grid -= np.maximum.reduce(grid, axis=-1, keepdims=True)
    np.exp(grid, out=grid)
    grid /= np.add.reduce(grid, axis=-1, keepdims=True)  # p(w | c)
    grid *= n_c
    return residual_gradient(params, np.subtract(counts.true, grid, out=grid), Z_EXACT, out)


def residual_gradient(
    params: ModelParams, residual: np.ndarray, z_mode: str, out: Gradient | None = None
) -> Gradient:
    """Sum of ``residual[..., c, w] * d(log u_adjusted(w, c))/d(theta)`` over
    the grid, per model of a stack.

    Every objective's gradient has this form once its per-pair coefficients
    are merged into one (..., n_contexts, n_words) residual matrix, so the
    heavy lifting is two small matmuls. The log_zc block is nonzero only for
    learned normalizers; it is not written otherwise, so a reused ``out``
    (a :func:`zero_gradient` of ``params``) keeps it at zero.
    """
    grad = zero_gradient(params) if out is None else out
    np.matmul(residual.mT, params.context_emb, out=grad.target_emb)
    np.matmul(residual, params.target_emb, out=grad.context_emb)
    np.add.reduce(residual, axis=-2, out=grad.bias)
    if z_mode == Z_LEARNED_ZC:
        np.negative(np.add.reduce(residual, axis=-1, out=grad.log_zc), out=grad.log_zc)
    return grad


def normalization_stats(params: ModelParams, context_ids) -> dict[str, float]:
    """Order statistics of log Z over a set of context ids."""
    lz = log_partitions(params)[np.asarray(context_ids, dtype=np.int64)]
    if lz.size == 0:
        raise ValueError("normalization_stats needs at least one context")
    return {"min": float(lz.min()), "median": float(np.median(lz)), "max": float(lz.max())}


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

def save_model(path, params: ModelParams, vocab: Vocabulary) -> None:
    """Versioned text dump; floats carry 17 significant digits and round-trip
    bit-faithfully."""
    if len(vocab) != params.n_words:
        raise ValueError("vocabulary size does not match model size")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lblm v1 {params.n_words} {params.dim} {params.z_mode}\n")
        for word in vocab.words:
            fh.write(word + "\n")
        for name in PARAM_BLOCKS:
            fh.write(name + "\n")
            for row in np.atleast_2d(getattr(params, name)):  # bias and log_zc: one row
                fh.write(format_row(row) + "\n")


def load_model(path) -> tuple[ModelParams, Vocabulary]:
    """Read a model written by :func:`save_model`. ValueError for a bad header
    or one of over ``MAX_VOCAB_SIZE`` words, a line count other than the
    header's, a vocabulary other than N distinct words one per line, a
    misplaced block label, or a row not its block's number of finite values."""
    (n_words, dim, z_mode), lines = read_lines(path, "model file", _model_header)
    rows, cols = (n_words, n_words + 1, 1, 1), (dim, dim, n_words, n_words + 1)
    check_line_count(lines, 1 + n_words + len(PARAM_BLOCKS) + sum(rows), "model file")
    words = lines[1 : 1 + n_words]
    vocab = build_vocab(words)
    if len(vocab) != n_words or any(word.split() != [word] for word in words):
        raise ValueError(f"model vocabulary is not {n_words} distinct words, one per line")
    pos, blocks = 1 + n_words, []
    for name, n_rows, n_cols in zip(PARAM_BLOCKS, rows, cols):
        if lines[pos] != name:
            raise ValueError(f"expected block {name!r}, found {lines[pos]!r}")
        blocks.append(parse_rows(lines[pos + 1 : pos + 1 + n_rows], n_cols, f"block {name!r}"))
        pos += 1 + n_rows
    return ModelParams(*blocks, z_mode=z_mode), vocab


def _model_header(line: str) -> tuple[int, int, str]:
    """(N, dim, z_mode) of a model header line ``lblm v1 N dim z_mode``."""
    header = line.split()
    sizes = [int(f) if f.isdecimal() else 0 for f in header[2:4]]
    if len(header) != 5 or header[:2] != ["lblm", "v1"] or min(sizes) < 1:
        raise ValueError(f"bad model header: {line!r}")
    if header[4] not in Z_MODES:
        raise ValueError(f"unknown z_mode {header[4]!r} in model file")
    check_vocab_cap(sizes[0])
    return sizes[0], sizes[1], header[4]
