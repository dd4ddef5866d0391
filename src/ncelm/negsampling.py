"""Negative sampling: the NCE classifier with the k*q(w) term dropped and z pinned to 1.

NS scores a cell by Delta = s(w, c), the raw score of ``model.score_matrix``,
where NCE uses s - log z_c - log(k q(w)); its posterior of a true sample is
u / (u + 1), with no reference to q, k or a normalizer. Both functions here
are NCE's two-class loss and gradient on that grid. With k = |V| and uniform
noise, k*q(w) is 1 and the objectives coincide; otherwise the posterior is
inconsistent with the normalized model, and the score's fixed point is the
shifted PMI log(p(w|c) / (k q(w))), not log p(w|c). ``checks.run_equiv_check``
compares NCE's logit grid at k*q(w) = 1 with the score grid; the shared
sigmoid and residual math is tested against references in the test suite.
"""

from __future__ import annotations

import numpy as np

from . import nce
from .model import Z_FIXED_ONE, CellCounts, Gradient, ModelParams, score_matrix


def ns_loss(params: ModelParams, counts: CellCounts) -> float | np.ndarray:
    """Two-class log-likelihood with the sigmoid-of-score posterior, of a
    batch given as cell counts."""
    return nce.loss(score_matrix(params), counts)


def ns_grad(params: ModelParams, counts: CellCounts, out: Gradient | None = None) -> Gradient:
    """Exact gradient of :func:`ns_loss`, per model of a stack; the log_zc
    block is always zero. ``out`` as in ``model.residual_gradient``."""
    return nce.grad(params, score_matrix(params), counts, Z_FIXED_ONE, out)
