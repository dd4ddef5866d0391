"""Noise distributions over the vocabulary: uniform, unigram, and flattened.

Classifier-based estimators contrast observed words against words drawn from
a fixed noise distribution q. The three standard choices are built here,
each as its float64 probability array of shape (n_words,).
The estimators see noise only as per-cell counts, so draws are made as
counts too: n independent words from q are one Multinomial(n, q) vector.
Full support over the vocabulary is enforced by ``nce.NceConfig``, through
which the estimators and the trainer's sampler read q, whoever built the
array: a zero-probability word would pin the classifier posterior of a true
sample at 1 and silently break the objective, so the config refuses it.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusStats


def uniform(n_words: int) -> np.ndarray:
    if n_words < 2:
        raise ValueError("noise distribution needs >= 2 words")
    return np.full(n_words, 1.0 / n_words)


def unigram(stats: CorpusStats) -> np.ndarray:
    """Empirical word frequencies. Every word must occur at least once."""
    counts = stats.unigram_counts
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"unsupported word in noise distribution: word id {missing} has count 0")
    return counts / counts.sum()


def flattened(stats: CorpusStats, alpha: float) -> np.ndarray:
    """Unigram probabilities raised to ``alpha`` in (0, 1) and renormalized.

    Interpolates between the unigram shape (alpha near 1) and uniform (alpha
    near 0); the endpoints themselves have their own constructors.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"flattening exponent out of range (0, 1): {alpha}")
    p = unigram(stats) ** alpha
    return p / p.sum()


def sample_array(q: np.ndarray, totals, rng: np.random.Generator) -> np.ndarray:
    """Noise counts, int64 of shape ``totals.shape + (n_words,)``: entry
    ``[..., w]`` counts how many of ``totals[...]`` independent draws from q
    are word w. One call over an array gives the same bits as one call per
    row, in order, on the same generator."""
    return rng.multinomial(totals, q)


def parse_noise_spec(spec: str, stats: CorpusStats) -> np.ndarray:
    """Build a distribution over the words of ``stats`` from a spec string.

    Accepted forms: ``uniform``, ``unigram``, ``flattened:<alpha>`` with alpha
    a decimal in (0, 1).
    """
    spec = spec.strip()
    if spec == "uniform":
        return uniform(stats.unigram_counts.size)
    if spec == "unigram":
        return unigram(stats)
    if spec.startswith("flattened:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad flattening exponent in {spec!r}") from exc
        return flattened(stats, alpha)
    raise ValueError(f"unknown noise spec {spec!r} (expected uniform, unigram, or flattened:<alpha>)")
