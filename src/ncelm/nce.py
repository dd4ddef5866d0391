"""Noise contrastive estimation: the two-class proxy problem and its losses.

Instead of maximizing the normalized likelihood, NCE trains the same
parameters as a probabilistic classifier that tells observed words apart
from noise words. For each observed (context, word) pair, k noise words are
drawn from a distribution q, and the two-class data follows the mixture

    p(d=1, w | c) = 1/(1+k) * p(w | c)        (true sample)
    p(d=0, w | c) = k/(1+k) * q(w)            (noise sample)

so by conditioning on (c, w) the classifier posterior of a true sample is
p(w|c) / (p(w|c) + k q(w)). Substituting the model's unnormalized weight u
(divided by its per-context normalizer z_c, a parameter of a ``learned_zc``
model; any other model has z_c pinned to 1) gives the trainable posterior

    sigma(Delta)  with  Delta = log u - log z_c - log(k q(w)).

The objective is written once, over the Delta grid and per-cell true and
noise counts; negative sampling is the same objective on the raw score grid.
The Monte Carlo form passes a batch's sampled counts
(``model.CellCounts``); the exact form passes a corpus's true counts and
their expected noise counts ``n_c k q(w)``, a full-vocabulary sum that is
tractable here. The objective is linear in the noise counts, so the Monte
Carlo form is an unbiased estimate of the exact one, the oracle it is
tested against. The analysis gradient reads the exact derivative as a
classifier-weighted moment mismatch between the empirical conditional and
the model weight, the lens for the large-k behavior: as k grows its
direction approaches the exact log-likelihood gradient.

Log-posteriors come from exp(-|Delta|) <= 1 and classifier weights from
tanh(Delta/2) in [-1, 1], so nothing overflows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    CellCounts,
    Gradient,
    ModelParams,
    Z_LEARNED_ZC,
    context_totals,
    grid_dot,
    residual_gradient,
)


@dataclass(frozen=True)
class NceConfig:
    """k noise words per true word, drawn from the word probabilities q, each
    > 0; the normalizer mode is the model's. Model r of a stack may take
    k[r] of (R,) and row r of q, (R, n_words)."""

    k: int | np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if np.any(np.less(self.k, 1)):
            raise ValueError("k must be >= 1")
        if not np.all(np.greater(self.q, 0)):  # a NaN compares False
            raise ValueError("unsupported word in noise distribution: probability not > 0")

    @classmethod
    def stack(cls, cfgs: Sequence[NceConfig]) -> NceConfig:
        """One config for a stack of models, model r under ``cfgs[r]``."""
        return cls(np.array([c.k for c in cfgs]), np.stack([c.q for c in cfgs]))

    def __getitem__(self, sel) -> NceConfig:
        """The config of the models of a stack that ``sel`` picks; an int picks one model's."""
        return NceConfig(self.k[sel], self.q[sel])

    @cached_property
    def log_kq(self) -> np.ndarray:
        """log(k q(w)) per word, or (R, n_words), a row at a time so that row r
        has the bits of model r's own config: the noise term of every logit."""
        kq = np.asarray(self.k, dtype=np.float64)[..., None] * self.q
        return np.array([np.log(row) for row in kq.reshape(-1, kq.shape[-1])]).reshape(kq.shape)


# ---------------------------------------------------------------------------
# Classifier logits and the two-class objective on cell counts
# ---------------------------------------------------------------------------

def classifier_logits(
    params: ModelParams, contexts: np.ndarray, words: np.ndarray, cfg: NceConfig
) -> np.ndarray:
    """Delta = log u_adjusted - log(k q(w)) for paired context/word arrays.

    ``words`` may be (n,) or (n, k); contexts broadcast along the last axis,
    so all contexts against words of shape (1, n_words) give the full grid.
    A lookup into the Delta rows of every context, computed by one matmul.
    """
    rows = _logit_rows(params, cfg)
    contexts = np.asarray(contexts)
    if words.ndim == 2:
        contexts = contexts[:, None]
    # C order: the log-sigmoid of a strided gather rounds differently.
    return np.ascontiguousarray(rows[..., contexts, words])


def _log_sigmoids(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigma(Delta) and log sigma(-Delta): min(+-Delta, 0) - log1p(exp(-|Delta|))."""
    soft = np.log1p(np.exp(-np.abs(delta)))
    return np.minimum(delta, 0.0) - soft, np.minimum(-delta, 0.0) - soft


def loss(delta: np.ndarray, counts: CellCounts) -> float | np.ndarray:
    """Two-class log-likelihood of per-cell counts: each true sample scores
    log sigma(Delta), each noise sample log sigma(-Delta)."""
    true, noise = counts
    log_sig, log_sig_neg = _log_sigmoids(delta)
    return grid_dot(true, log_sig) + grid_dot(noise, log_sig_neg)


def _residual(delta: np.ndarray, counts: CellCounts) -> np.ndarray:
    """``T sigma(-Delta) - N sigma(Delta) = (T-N)/2 - (T+N)/2 tanh(Delta/2)`` per
    cell, from the counts' halves: one tanh, no branch, into one new grid of
    Delta's shape, so a stack of models may share one count grid; NaN stays NaN."""
    residual = np.multiply(delta, 0.5)
    np.tanh(residual, out=residual)
    residual *= counts.half_sum
    return np.subtract(counts.half_diff, residual, out=residual)


def grad(
    params: ModelParams, delta: np.ndarray, counts: CellCounts, z_mode: str,
    out: Gradient | None = None,
) -> Gradient:
    """Gradient of :func:`loss` at ``params``' logit grid ``delta``: a true sample
    pushes with weight sigma(-Delta), a noise sample pulls with weight
    sigma(Delta), through d(Delta)/d(theta) of ``z_mode``."""
    return residual_gradient(params, _residual(delta, counts), z_mode, out)


# ---------------------------------------------------------------------------
# Monte Carlo objective
# ---------------------------------------------------------------------------

def _check_k(counts: CellCounts, k) -> None:
    """Raise unless each count grid holds k noise samples per true sample;
    for a stack, grid r its own ``k[r]``. One compare of the grids' totals,
    then for a stack one count of its mismatches; one grid gives a scalar
    compare."""
    true, noise = counts.true_total, counts.noise_total
    bad = noise != k * true
    if np.count_nonzero(bad) if bad.ndim else bad:  # one grid and one k give a numpy bool
        i = np.flatnonzero(bad)[0]
        where = "" if bad.ndim == 0 else f"model {i}: "
        true, noise, k = (np.broadcast_to(a, bad.shape).flat[i] for a in (true, noise, k))
        raise ValueError(
            f"k mismatch: {where}counts hold {int(noise)} noise samples for "
            f"{int(true)} true samples, config says k={k}"
        )


def mc_loss(params: ModelParams, counts: CellCounts, cfg: NceConfig) -> float | np.ndarray:
    """Sampled two-class log-likelihood of a batch given as cell counts.

    Per example: log-posterior of the true word plus the log noise-posterior
    of each of its k sampled noise words, summed here per cell. Raises
    ValueError unless the counts hold k noise samples per true sample. A
    stack of models takes one config or a stacked one, and one count grid
    or one per model.
    """
    _check_k(counts, cfg.k)
    delta = classifier_logits(
        params, np.arange(params.n_contexts), np.arange(params.n_words)[None, :], cfg
    )
    return loss(delta, counts)


def mc_grad(
    params: ModelParams, counts: CellCounts, cfg: NceConfig, out: Gradient | None = None
) -> Gradient:
    """Exact gradient of :func:`mc_loss` in the active parameter blocks, per
    model of a stack; ``out`` as in ``model.residual_gradient``."""
    _check_k(counts, cfg.k)
    return grad(params, _logit_rows(params, cfg), counts, params.z_mode, out)


# ---------------------------------------------------------------------------
# Exact objective and its analysis gradient
# ---------------------------------------------------------------------------

def _expected_counts(counts: np.ndarray, cfg: NceConfig, caller: str) -> CellCounts:
    """The pairs counted in ``counts`` and their expected noise counts ``n_c k q(w)``,
    model r of a stacked config's ``n_c k[r] q_r(w)``."""
    k = np.expand_dims(cfg.k, (-2, -1))
    return CellCounts(counts, context_totals(counts, caller) * k * np.expand_dims(cfg.q, -2))


def exact_loss(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> float | np.ndarray:
    """:func:`mc_loss` at the expected noise counts of the pairs counted in
    ``counts``, (n_contexts, n_words): context c carries ``n_c k q(w)``
    noise samples of word w, the q-expectation of its pairs' k noise words.
    The Monte Carlo objective is an unbiased estimate of this quantity.
    """
    return loss(_logit_rows(params, cfg), _expected_counts(counts, cfg, "exact_loss"))


def exact_grad_analysis(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> Gradient:
    """Gradient of :func:`exact_loss` in classifier-weighted residual form.

    For each context (weighted by its count n_c) and each vocabulary word:

        k q(w) / (u_adj + k q(w)) * (p_emp(w|c) - u_adj(w,c)) * d log u_adj

    which is zero exactly when the adjusted model weight matches the
    empirical conditional. Computed stably as the residual
    ``N(c, w) sigma(-Delta) - n_c k q(w) sigma(Delta)``, which is n_c times
    ``sigma(-Delta) * p_emp - k q(w) * sigma(Delta)`` per cell.
    """
    counts = _expected_counts(counts, cfg, "exact_grad_analysis")
    return grad(params, _logit_rows(params, cfg), counts, params.z_mode)


def _logit_rows(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta over the whole vocabulary for every context, (..., n_contexts, n_words).
    log z_c is subtracted for a learned_zc model only; for the others z_c is 1."""
    delta = params.context_emb @ params.target_emb.mT
    delta += (params.bias - cfg.log_kq)[..., None, :]
    if params.z_mode == Z_LEARNED_ZC:
        delta -= params.log_zc[..., :, None]
    return delta
