"""Noise contrastive estimation: the two-class proxy problem and its losses.

Instead of maximizing the normalized likelihood, NCE trains the same
parameters as a probabilistic classifier that tells observed words apart
from noise words. For each observed (context, word) pair, k noise words are
drawn from a distribution q, and the two-class data follows the mixture

    p(d=1, w | c) = 1/(1+k) * p(w | c)        (true sample)
    p(d=0, w | c) = k/(1+k) * q(w)            (noise sample)

so by conditioning on (c, w) the classifier posterior of a true sample is
p(w|c) / (p(w|c) + k q(w)). Substituting the model's unnormalized weight u
(optionally divided by a learned per-context normalizer z_c, or left as-is
with z_c pinned to 1) gives the trainable posterior

    sigma(Delta)  with  Delta = log u - log z_c - log(k q(w)).

The objective is written once, over the Delta grid and per-cell true and
noise counts. The Monte Carlo form passes a batch's sampled counts
(``model.CellCounts``); the exact form passes a corpus's true counts and
their expected noise counts ``n_c k q(w)``, a full-vocabulary sum that is
tractable here. The objective is linear in the noise counts, so the Monte
Carlo form is an unbiased estimate of the exact one, the oracle it is
tested against. The analysis gradient reads the exact derivative as a
classifier-weighted moment mismatch between the empirical conditional and
the model weight, the lens for the large-k behavior: as k grows its
direction approaches the exact log-likelihood gradient.

All log-posteriors go through the stable log-sigmoid of Delta; a ratio of
exponentials is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    CellCounts,
    Gradient,
    ModelParams,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    context_totals,
    residual_gradient,
    score_matrix,
)
from .noise import NoiseDistribution


@dataclass(frozen=True)
class NceConfig:
    k: int
    z_mode: str  # learned_zc or fixed_one
    q: NoiseDistribution

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.z_mode not in (Z_LEARNED_ZC, Z_FIXED_ONE):
            raise ValueError(f"NCE z_mode must be learned_zc or fixed_one, got {self.z_mode!r}")

    @cached_property
    def log_kq(self) -> np.ndarray:
        """log(k q(w)) per word: the noise term of every classifier logit."""
        return np.log(self.k * self.q.probs)


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
    return rows[contexts, words]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _loss(delta: np.ndarray, counts: CellCounts) -> float:
    """Two-class log-likelihood of per-cell counts: each true sample scores
    log sigma(Delta), each noise sample log sigma(-Delta)."""
    true, noise = counts
    return float(np.vdot(true, _log_sigmoid(delta)) + np.vdot(noise, _log_sigmoid(-delta)))


def _grad(params: ModelParams, delta: np.ndarray, counts: CellCounts, z_mode: str) -> Gradient:
    """Gradient of :func:`_loss`. A true sample pushes with weight
    sigma(-Delta), a noise sample pulls with weight sigma(Delta), both
    through d(log u_adjusted)/d(theta); per cell this is the residual
    ``T sigma(-Delta) - N sigma(Delta)``."""
    # sigma(-Delta) and sigma(Delta) in one pass.
    coef = np.array((delta, -delta))
    np.negative(np.logaddexp(0.0, coef, out=coef), out=coef)
    coef_true, coef_noise = np.exp(coef, out=coef)
    return residual_gradient(params, counts.true * coef_true - counts.noise * coef_noise, z_mode)


# ---------------------------------------------------------------------------
# Monte Carlo objective
# ---------------------------------------------------------------------------

def _check_k(counts: CellCounts, k: int) -> None:
    """Raise unless ``counts`` holds k noise samples per true sample."""
    if int(counts.noise.sum()) != k * int(counts.true.sum()):
        raise ValueError(
            f"k mismatch: counts hold {counts.noise.sum()} noise samples for "
            f"{counts.true.sum()} true samples, config says k={k}"
        )


def _delta_grid(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta on every (context, word) cell, shape (n_contexts, n_words)."""
    return classifier_logits(
        params, np.arange(params.n_contexts), np.arange(params.n_words)[None, :], cfg
    )


def mc_loss(params: ModelParams, counts: CellCounts, cfg: NceConfig) -> float:
    """Sampled two-class log-likelihood of a batch given as cell counts.

    Per example: log-posterior of the true word plus the log noise-posterior
    of each of its k sampled noise words, summed here per cell. Raises
    ValueError unless the counts hold k noise samples per true sample.
    """
    _check_k(counts, cfg.k)
    return _loss(_delta_grid(params, cfg), counts)


def mc_grad(params: ModelParams, counts: CellCounts, cfg: NceConfig) -> Gradient:
    """Exact gradient of :func:`mc_loss` in the active parameter blocks."""
    _check_k(counts, cfg.k)
    return _grad(params, _delta_grid(params, cfg), counts, cfg.z_mode)


# ---------------------------------------------------------------------------
# Exact objective and its analysis gradient
# ---------------------------------------------------------------------------

def _expected_counts(counts: np.ndarray, cfg: NceConfig, caller: str) -> CellCounts:
    """The pairs counted in ``counts`` and their expected noise counts ``n_c k q(w)``."""
    return CellCounts(counts, context_totals(counts, caller) * cfg.k * cfg.q.probs)


def exact_loss(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> float:
    """:func:`mc_loss` at the expected noise counts of the pairs counted in
    ``counts``, (n_contexts, n_words): context c carries ``n_c k q(w)``
    noise samples of word w, the q-expectation of its pairs' k noise words.
    The Monte Carlo objective is an unbiased estimate of this quantity.
    """
    return _loss(_logit_rows(params, cfg), _expected_counts(counts, cfg, "exact_loss"))


def exact_grad_analysis(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> Gradient:
    """Gradient of :func:`exact_loss` in classifier-weighted residual form.

    For each context (weighted by its count n_c) and each vocabulary word:

        k q(w) / (u_adj + k q(w)) * (p_emp(w|c) - u_adj(w,c)) * d log u_adj

    which is zero exactly when the adjusted model weight matches the
    empirical conditional. Computed stably as the residual
    ``N(c, w) sigma(-Delta) - n_c k q(w) sigma(Delta)``, which is n_c times
    ``sigma(-Delta) * p_emp - k q(w) * sigma(Delta)`` per cell.
    """
    expected = _expected_counts(counts, cfg, "exact_grad_analysis")
    return _grad(params, _logit_rows(params, cfg), expected, cfg.z_mode)


def _logit_rows(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta over the whole vocabulary for every context, (n_contexts, n_words)."""
    s = score_matrix(params)
    if cfg.z_mode == Z_LEARNED_ZC:
        s -= params.log_zc[:, None]
    s -= cfg.log_kq
    return s
