"""Noise distributions over the vocabulary: uniform, unigram, and flattened.

Classifier-based estimators contrast observed words against words drawn from
a fixed noise distribution q. The three standard choices are built here, each
with exact probability lookup and constant-time seeded sampling via Walker's
alias method. Full support over the vocabulary is enforced at construction:
a zero-probability word would pin the classifier posterior of a true sample
at 1 and silently break the objective, so construction fails fast instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import CorpusStats

KIND_UNIFORM = "uniform"
KIND_UNIGRAM = "unigram"
KIND_FLATTENED = "flattened"


@dataclass(frozen=True)
class NoiseDistribution:
    """Categorical distribution with O(1) draws from a precomputed table."""

    probs: np.ndarray  # (n_words,), sums to 1, strictly positive
    kind: str
    alpha: float | None = None
    # Alias tables: entry i accepts with accept[i], else redirects to alias[i].
    accept: np.ndarray = field(repr=False, default=None)
    alias: np.ndarray = field(repr=False, default=None)

    @property
    def n_words(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def outcomes(self) -> np.ndarray:
        """Outcome of a draw at index ``2 * slot + keep``: ``alias[slot]`` or ``slot``."""
        return np.stack([self.alias, np.arange(self.n_words)], axis=1).ravel()


def _build(probs: np.ndarray, kind: str, alpha: float | None = None) -> NoiseDistribution:
    if np.any(probs <= 0):
        raise ValueError("unsupported word in noise distribution: zero probability")
    accept, alias = _alias_tables(probs)
    return NoiseDistribution(probs=probs, kind=kind, alpha=alpha, accept=accept, alias=alias)


def uniform(n_words: int) -> NoiseDistribution:
    if n_words < 2:
        raise ValueError("noise distribution needs >= 2 words")
    return _build(np.full(n_words, 1.0 / n_words), KIND_UNIFORM)


def unigram(stats: CorpusStats) -> NoiseDistribution:
    """Empirical word frequencies. Every word must occur at least once."""
    counts = stats.unigram_counts
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"unsupported word in noise distribution: word id {missing} has count 0")
    return _build(counts / counts.sum(), KIND_UNIGRAM)


def flattened(stats: CorpusStats, alpha: float) -> NoiseDistribution:
    """Unigram probabilities raised to ``alpha`` in (0, 1) and renormalized.

    Interpolates between the unigram shape (alpha near 1) and uniform (alpha
    near 0); the endpoints themselves have their own constructors.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"flattening exponent out of range (0, 1): {alpha}")
    base = unigram(stats).probs
    p = base**alpha
    return _build(p / p.sum(), KIND_FLATTENED, alpha=alpha)


def sample_array(q: NoiseDistribution, shape, rng: np.random.Generator) -> np.ndarray:
    """Array of independent draws; two uniform variates per draw."""
    idx = rng.integers(0, q.n_words, size=shape)
    keep = rng.random(size=shape) < q.accept[idx]
    return q.outcomes[2 * idx + keep]


def _alias_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias construction: O(n) setup, exact on the input weights."""
    n = probs.shape[0]
    accept = np.ones(n)
    alias = np.arange(n)
    scaled = probs * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # Leftovers are 1 up to rounding; they keep their own slot.
    return accept, alias


def induced_probs(q: NoiseDistribution) -> np.ndarray:
    """Distribution the alias tables actually realize.

    Equals ``q.probs`` up to float rounding in table construction; exposed so
    the sampler structure can be audited without drawing samples.
    """
    n = q.n_words
    out = q.accept / n
    np.add.at(out, q.alias, (1.0 - q.accept) / n)
    return out


def parse_noise_spec(spec: str, stats: CorpusStats | None, n_words: int) -> NoiseDistribution:
    """Build a distribution from a spec string.

    Accepted forms: ``uniform``, ``unigram``, ``flattened:<alpha>`` with alpha
    a decimal in (0, 1). The corpus statistics are required for the two
    frequency-based forms.
    """
    spec = spec.strip()
    if spec == KIND_UNIFORM:
        return uniform(n_words)
    if spec == KIND_UNIGRAM:
        if stats is None:
            raise ValueError("unigram noise needs corpus statistics")
        return unigram(stats)
    if spec.startswith("flattened:"):
        if stats is None:
            raise ValueError("flattened noise needs corpus statistics")
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad flattening exponent in {spec!r}") from exc
        return flattened(stats, alpha)
    raise ValueError(f"unknown noise spec {spec!r} (expected uniform, unigram, or flattened:<alpha>)")
