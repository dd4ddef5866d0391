"""Negative sampling: the classifier variant that drops the k*q(w) term.

The posterior of being a true sample becomes u / (u + 1), a plain logistic
sigmoid of the score, with no reference to the noise distribution, the noise
count, or any per-context normalizer. With k equal to the vocabulary size and
uniform noise, k*q(w) is 1 and this coincides with the NCE classifier; in
every other regime the posterior is inconsistent with the normalized model,
so the fitted weights are not maximum-likelihood estimates of it. Both facts
are exercised by the verification suite.

The scores and classifier coefficients are deliberately computed from their
own definitions rather than by delegating to the NCE kernels, so agreement
between the two modules is evidence, not tautology. Only the batch's cell
counts and the residual-to-gradient kernel every objective uses are shared.
"""

from __future__ import annotations

import numpy as np

from .model import Z_FIXED_ONE, CellCounts, Gradient, ModelParams, grid_dot, residual_gradient


def ns_loss(params: ModelParams, counts: CellCounts) -> float | np.ndarray:
    """Two-class log-likelihood with the sigmoid-of-score posterior, of a
    batch given as cell counts."""
    true, noise = counts
    log_sig, log_sig_neg = _log_sigmoids(_score_grid(params))
    return grid_dot(true, log_sig) + grid_dot(noise, log_sig_neg)


def ns_grad(params: ModelParams, counts: CellCounts, out: Gradient | None = None) -> Gradient:
    """Exact gradient of :func:`ns_loss`, per model of a stack; the log_zc
    block is always zero. ``out`` as in ``model.residual_gradient``."""
    return residual_gradient(params, _residual(_score_grid(params), counts), Z_FIXED_ONE, out)


def _log_sigmoids(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigma(+-s) = min(+-s, 0) - log1p(exp(-|s|)); exp(-|s|) <= 1 cannot overflow."""
    soft = np.log1p(np.exp(-np.abs(s)))
    return np.minimum(s, 0.0) - soft, np.minimum(-s, 0.0) - soft


def _residual(s: np.ndarray, counts: CellCounts) -> np.ndarray:
    """``T (1 - sigma(s)) - N sigma(s) = (T-N)/2 - (T+N)/2 tanh(s/2)`` per cell,
    from the counts' halves: one tanh, bounded for any s, into one new grid
    of the scores' shape; a NaN score stays NaN."""
    residual = np.multiply(s, 0.5)
    np.tanh(residual, out=residual)
    residual *= counts.half_sum
    return np.subtract(counts.half_diff, residual, out=residual)


def _score_grid(params: ModelParams) -> np.ndarray:
    """Score of every (context, word) cell, shape (..., n_contexts, n_words)."""
    return params.context_emb @ params.target_emb.mT + params.bias[..., None, :]
