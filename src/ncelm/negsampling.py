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
    s = _score_grid(params)
    true, noise = counts
    return -grid_dot(true, np.logaddexp(0.0, -s)) - grid_dot(noise, np.logaddexp(0.0, s))


def ns_grad(params: ModelParams, counts: CellCounts) -> Gradient:
    """Exact gradient of :func:`ns_loss`; the log_zc block is always zero."""
    s = _score_grid(params)
    # 1 - sigma(s) and sigma(s), both in one pass.
    coef = np.array((s, -s))
    np.negative(np.logaddexp(0.0, coef, out=coef), out=coef)
    coef_true, coef_noise = np.exp(coef, out=coef)
    residual = counts.true * coef_true - counts.noise * coef_noise
    return residual_gradient(params, residual, Z_FIXED_ONE)


def _score_grid(params: ModelParams) -> np.ndarray:
    """Score of every (context, word) cell, shape (..., n_contexts, n_words)."""
    return params.context_emb @ params.target_emb.mT + params.bias[..., None, :]
