"""Noise distributions over the vocabulary: uniform, unigram, and flattened.

Classifier-based estimators contrast observed words against words drawn from
a fixed noise distribution q. The three standard choices are built here,
each as its float64 probability array of shape (n_words,).
The estimators see noise only as per-cell counts, so draws are made as
counts too: n independent words from q are one Multinomial(n, q) vector,
drawn either as one ``rng.multinomial`` row or, when a run's steps hold few
noise words for the vocabulary (``draws_words``), word by word through
Walker's alias table and counted.
Full support over the vocabulary is enforced by ``nce.NceConfig``, through
which the estimators and the trainer's sampler read q, whoever built the
array: a zero-probability word would pin the classifier posterior of a true
sample at 1 and silently break the objective, so the config refuses it.
"""

from __future__ import annotations

from itertools import pairwise
from typing import NamedTuple

import numpy as np


def uniform(n_words: int) -> np.ndarray:
    if n_words < 2:
        raise ValueError("noise distribution needs >= 2 words")
    return np.full(n_words, 1.0 / n_words)


def unigram(counts: np.ndarray) -> np.ndarray:
    """Empirical word frequencies: the column sums of the pair count grid
    ``counts`` (``corpus.pair_count_matrix``), normalized. Every word must
    occur at least once."""
    words = counts.sum(axis=0)
    if np.any(words == 0):
        missing = int(np.flatnonzero(words == 0)[0])
        raise ValueError(f"unsupported word in noise distribution: word id {missing} has count 0")
    return words / words.sum()


def flattened(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Unigram probabilities raised to ``alpha`` in (0, 1) and renormalized.

    Interpolates between the unigram shape (alpha near 1) and uniform (alpha
    near 0); the endpoints themselves have their own constructors.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"flattening exponent out of range (0, 1): {alpha}")
    p = unigram(counts) ** alpha
    return p / p.sum()


# A run draws its noise word by word, through an alias table, while a
# step's k * batch noise words are at most WORD_DRAWS_PER_CELL for each
# cell the step can fill, min(batch, |V| + 1) * |V|: a multinomial row costs
# a chain of up to |V| - 1 binomial draws, and a step fills at most
# min(batch, |V| + 1) rows, while an alias draw costs about 9 ns a word.
# Timing one count block's draw both ways (2-CPU host, numpy 2.4.6) at |V|
# 8 to 256 and batches 8 to 256, the word draw was faster at every shape up
# to 8 words a cell and about even at 12, so 4 keeps a margin of two. It
# also caps a step's words at 4 per cell of its count grid.
WORD_DRAWS_PER_CELL = 4

# The word draw goes through a block's rows in groups of about this many
# words, one pass each: 64 KB per float64 temporary, under the 128 KB past
# which glibc maps each allocation afresh and every pass faults its pages
# in. Without groups, a 30-step block at |V| 16, batch 64 and k 25 took 53
# against 39 µs a step in training.
WORD_CHUNK = 2**13


class AliasTable(NamedTuple):
    """Walker's alias table of a distribution q over n words: a uniform x in
    [0, n) with integer part i draws word i when x < ``cut[i]``, else the
    alias of column i; ``words`` holds the n words, then the n aliases."""

    cut: np.ndarray  # float64 (n,): i + the probability that column i keeps word i
    words: np.ndarray  # int64 (2n,)


def draws_words(k: int, batch_size: int, n_words: int) -> bool:
    """Whether a run with k noise words per pair, ``batch_size`` pairs per
    step (its effective batch, at most the data) and ``n_words`` words draws
    its noise word by word, through an alias table, rather than as one
    multinomial per row. A function of the run's shape only, never of the
    drawn counts, so every caller that splits the run's draws differently
    takes the same path and consumes the same stream."""
    return k * batch_size <= WORD_DRAWS_PER_CELL * min(batch_size, n_words + 1) * n_words


def alias_table(q: np.ndarray) -> AliasTable:
    """Vose's O(n) construction of the alias table of q."""
    n = q.size
    prob = q * n
    alias = np.arange(n)
    small = [i for i in range(n) if prob[i] < 1.0]
    large = [i for i in range(n) if prob[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        alias[s] = g
        prob[g] -= 1.0 - prob[s]
        (small if prob[g] < 1.0 else large).append(g)
    # What is left holds a full column, up to rounding, and never moves.
    prob[small + large] = 1.0
    return AliasTable(np.arange(n) + prob, np.concatenate([np.arange(n), alias]))


def sample_array(q: np.ndarray, totals, rng: np.random.Generator,
                 table: AliasTable | None = None) -> np.ndarray:
    """Noise counts, int64 of shape ``totals.shape + (n_words,)``: entry
    ``[..., w]`` counts how many of ``totals[...]`` independent draws from q
    are word w, so each row is Multinomial(totals[...], q).

    Without ``table`` each row is drawn by ``rng.multinomial``. With
    ``table``, ``alias_table(q)``, the words are drawn one by one: one
    uniform double per word, the rows' words in C order, counted by
    ``count_alias_words`` with each group's uniforms drawn as it is counted.
    Either way one call over an array gives the same bits as one call per
    row, in order, on the same generator."""
    if table is None:
        return rng.multinomial(totals, q)
    return count_alias_words(table, totals, lambda words: rng.random(words.stop - words.start))


def count_alias_words(table: AliasTable, totals, uniforms) -> np.ndarray:
    """Counts, int64 of shape ``totals.shape + (n_words,)``, of the words
    that the rows of ``totals`` draw through ``table``, one uniform double
    in [0, 1) per word, the rows' words in C order. The rows go in groups
    of about ``WORD_CHUNK`` words, each counted in one pass by one bincount
    from ``uniforms(words)``: the uniforms of the words in the slice
    ``words``, called on consecutive slices from word 0 on, and overwritten.
    Rows drawn from several generators pass their uniforms drawn ahead."""
    totals = np.asarray(totals)
    flat = totals.ravel()
    counts = np.empty((flat.size, table.cut.size), dtype=np.int64)
    bounds = np.zeros(flat.size + 1, dtype=np.int64)  # the first word of each row, then the end
    np.cumsum(flat, out=bounds[1:])
    stops = np.searchsorted(bounds[1:], np.arange(WORD_CHUNK, bounds[-1], WORD_CHUNK), side="right")
    for lo, hi in pairwise(np.unique([0, *stops, flat.size])):
        counts[lo:hi] = _alias_counts(table, flat[lo:hi], uniforms(slice(bounds[lo], bounds[hi])))
    return counts.reshape(totals.shape + (table.cut.size,))


def _alias_counts(table: AliasTable, totals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``count_alias_words`` over the 1-d ``totals`` in one pass: the words'
    uniforms ``x``, overwritten, counted by one bincount."""
    n_words = table.cut.size
    x *= n_words
    i = x.astype(np.int64)
    # Branch-free: np.where on a random mask costs several times more.
    i += n_words * (x >= table.cut[i])
    ids = np.repeat(np.arange(0, totals.size * n_words, n_words), totals)
    ids += table.words[i]
    return np.bincount(ids, minlength=totals.size * n_words).reshape(totals.size, n_words)


def parse_noise_spec(spec: str, counts: np.ndarray) -> np.ndarray:
    """Build a distribution over the words of the pair count grid ``counts``
    from a spec string.

    Accepted forms: ``uniform``, ``unigram``, ``flattened:<alpha>`` with alpha
    a decimal in (0, 1).
    """
    spec = spec.strip()
    if spec == "uniform":
        return uniform(counts.shape[-1])
    if spec == "unigram":
        return unigram(counts)
    if spec.startswith("flattened:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad flattening exponent in {spec!r}") from exc
        return flattened(counts, alpha)
    raise ValueError(f"unknown noise spec {spec!r} (expected uniform, unigram, or flattened:<alpha>)")
