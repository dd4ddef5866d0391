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

Two objectives are provided: the Monte Carlo form, summing log-posteriors
over the sampled noise words of a batch given as per-cell true and noise
counts (``model.CellCounts``), and the exact form, where the noise
expectation is a full-vocabulary sum (tractable here, and the oracle the
Monte Carlo form is tested against). The analysis gradient re-expresses the
exact objective's derivative as a classifier-weighted moment mismatch
between the empirical conditional and the model weight, which is the lens
for the large-k behavior: as k grows its direction approaches the exact
log-likelihood gradient.

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
# Classifier logits
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(x))


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
    delta = _delta_grid(params, cfg)
    return float(
        np.vdot(counts.true, _log_sigmoid(delta)) + np.vdot(counts.noise, _log_sigmoid(-delta))
    )


def mc_grad(params: ModelParams, counts: CellCounts, cfg: NceConfig) -> Gradient:
    """Exact gradient of :func:`mc_loss` in the active parameter blocks.

    The true word pushes with weight (1 - sigma), each noise word pulls with
    weight sigma, both through d(log u_adjusted)/d(theta); per cell this is
    the residual ``T sigma(-Delta) - N sigma(Delta)``.
    """
    _check_k(counts, cfg.k)
    delta = _delta_grid(params, cfg)
    # sigma(-Delta) and sigma(Delta) in one pass, as _sigmoid computes them.
    coef = np.array((delta, -delta))
    np.negative(np.logaddexp(0.0, coef, out=coef), out=coef)
    coef_true, coef_noise = np.exp(coef, out=coef)
    residual = counts.true * coef_true - counts.noise * coef_noise
    return residual_gradient(params, residual, cfg.z_mode)


# ---------------------------------------------------------------------------
# Exact objective and its analysis gradient
# ---------------------------------------------------------------------------

def exact_loss(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> float:
    """Proxy objective with the noise expectation summed over the vocabulary,
    for the pairs counted in ``counts``, (n_contexts, n_words).

    Per observed pair: log-posterior of the true word plus k times the
    q-expectation of the log noise-posterior, so context c carries the
    expected noise counts ``n_c k q(w)``. The Monte Carlo objective is an
    unbiased estimate of this quantity.
    """
    noise_counts = context_totals(counts, "exact_loss") * cfg.k * cfg.q.probs
    delta = _logit_rows(params, cfg)
    return float(np.vdot(counts, _log_sigmoid(delta)) + np.vdot(noise_counts, _log_sigmoid(-delta)))


def exact_grad_analysis(params: ModelParams, counts: np.ndarray, cfg: NceConfig) -> Gradient:
    """Gradient of :func:`exact_loss` in classifier-weighted residual form.

    For each context (weighted by its count n_c) and each vocabulary word:

        k q(w) / (u_adj + k q(w)) * (p_emp(w|c) - u_adj(w,c)) * d log u_adj

    which is zero exactly when the adjusted model weight matches the
    empirical conditional. Computed stably as the residual
    ``N(c, w) sigma(-Delta) - n_c k q(w) sigma(Delta)``, which is n_c times
    ``sigma(-Delta) * p_emp - k q(w) * sigma(Delta)`` per cell.
    """
    n_c = context_totals(counts, "exact_grad_analysis")
    delta = _logit_rows(params, cfg)
    kq = cfg.k * cfg.q.probs[None, :]
    residual = counts * _sigmoid(-delta) - n_c * kq * _sigmoid(delta)
    return residual_gradient(params, residual, cfg.z_mode)


def _logit_rows(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta over the whole vocabulary for every context, (n_contexts, n_words)."""
    s = score_matrix(params)
    if cfg.z_mode == Z_LEARNED_ZC:
        s -= params.log_zc[:, None]
    s -= cfg.log_kq
    return s
