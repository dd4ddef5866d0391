"""Corpus ingestion, bigram statistics, and synthetic data generation.

The model predicts each token from the single previous token, so the corpus
reduces to a multiset of (context, word) pairs. A reserved ``<s>`` token acts
as the context of the first token in a stream; it is a valid context but never
a predicted word, and occupies context id ``|V|`` (one past the last word id).

Empirical distributions are exact ratios of integer counts, which keeps them
usable as oracles for the estimators built on top of them. File readers
refuse a vocabulary over ``MAX_VOCAB_SIZE`` from the header, reading no row.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .seeding import STREAM_DATA, derive_rng

BOS_TOKEN = "<s>"

MAX_VOCAB_SIZE = 1024
DENSE_GRIDS = "the truth table and the count and score grids are dense (|V| + 1) x |V| arrays"

# Tokens a synthetic stream is drawn, and a corpus written, at a time, so the
# Python objects held at once do not grow with the stream.
STREAM_CHUNK = 2**16


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional word/id map with dense 0-based ids."""

    words: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def bos_context(self) -> int:
        """Context id of the begin-of-sequence marker."""
        return len(self.words)


@dataclass(frozen=True)
class CorpusStats:
    """Exact bigram and unigram counts for one token stream.

    ``bigram_counts`` has one row per context (the last row is ``<s>``) and one
    column per word. Rows sum to ``context_counts``; unigram counts sum to
    ``total_tokens``.
    """

    bigram_counts: np.ndarray  # (n_words + 1, n_words), int64
    context_counts: np.ndarray  # (n_words + 1,), int64
    unigram_counts: np.ndarray  # (n_words,), int64
    total_tokens: int

    def seen_contexts(self) -> np.ndarray:
        """Ids of contexts that occur at least once."""
        return np.flatnonzero(self.context_counts > 0)


@dataclass(frozen=True)
class GroundTruthTable:
    """Known generating distribution for synthetic experiments.

    ``cond[c]`` is the conditional distribution over words given context word
    ``c``; ``context_marginal`` is the distribution over contexts.
    """

    cond: np.ndarray  # (n_words, n_words), rows sum to 1
    context_marginal: np.ndarray  # (n_words,), sums to 1

    @property
    def n_words(self) -> int:
        return self.cond.shape[0]

    def validate(self) -> None:
        if np.any(self.cond < 0) or np.any(self.context_marginal < 0):
            raise ValueError("ground truth has negative probabilities")
        if not np.allclose(self.cond.sum(axis=1), 1.0, atol=1e-12, rtol=0):
            raise ValueError("ground truth conditional rows must sum to 1")
        if not np.isclose(self.context_marginal.sum(), 1.0, atol=1e-12, rtol=0):
            raise ValueError("ground truth context marginal must sum to 1")


def build_vocab(tokens) -> Vocabulary:
    """Assign dense ids to distinct tokens in first-occurrence order."""
    index: dict[str, int] = {}
    for tok in tokens:
        if tok == BOS_TOKEN:
            raise ValueError(f"token {BOS_TOKEN!r} is reserved for the sequence start")
        if tok not in index:
            index[tok] = len(index)
    if len(index) < 2:
        raise ValueError(f"degenerate vocabulary: need >= 2 distinct tokens, got {len(index)}")
    return Vocabulary(words=tuple(index), index=index)


def pairs_from_tokens(tokens, vocab: Vocabulary) -> np.ndarray:
    """Map a token stream to its (context_id, word_id) pairs, ``<s>`` first.

    Raises on the first token missing from ``vocab``, naming its position.
    """
    lookup = map(vocab.index.get, tokens, itertools.repeat(-1))  # -1 marks an unknown token
    ids = np.fromiter(itertools.chain([vocab.bos_context], lookup), np.int64, len(tokens) + 1)
    if (unknown := np.flatnonzero(ids[1:] < 0)).size:
        raise ValueError(f"unknown token {tokens[unknown[0]]!r} at position {unknown[0]}")
    if ids.size == 1:
        raise ValueError("empty token stream")
    return np.stack([ids[:-1], ids[1:]], axis=1)  # each (context, word): <s> then every token


def pair_count_matrix(pairs: np.ndarray, n_words: int) -> np.ndarray:
    """Multiset of (context, word) pairs as its dense int64 count matrix,
    (n_words + 1, n_words): the one form in which a corpus reaches the
    exact objectives."""
    pairs = np.asarray(pairs, dtype=np.int64)
    flat = pairs[:, 0] * n_words + pairs[:, 1]
    return np.bincount(flat, minlength=(n_words + 1) * n_words).reshape(n_words + 1, n_words)


def stats_from_pairs(pairs: np.ndarray, n_words: int) -> CorpusStats:
    """Tally a (context, word) pair multiset into exact count tables."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    bigram = pair_count_matrix(pairs, n_words)
    return CorpusStats(
        bigram_counts=bigram,
        context_counts=bigram.sum(axis=1),
        unigram_counts=bigram.sum(axis=0),
        total_tokens=int(pairs.shape[0]),
    )


def generate_synthetic_corpus(truth: GroundTruthTable, n_tokens: int, seed: int) -> np.ndarray:
    """Draw ``n_tokens`` independent (context, word) pairs from the truth.

    Contexts come from ``context_marginal`` and words from the matching
    conditional row, so tallied pairs converge to the truth tables.
    """
    if n_tokens < 1:
        raise ValueError("n_tokens must be >= 1")
    rng = derive_rng(seed, STREAM_DATA)
    contexts = _sample_rows(truth.context_marginal[None, :], np.zeros(n_tokens, dtype=np.int64), rng)
    words = _sample_rows(truth.cond, contexts, rng)
    pairs = np.empty((n_tokens, 2), dtype=np.int64)
    pairs[:, 0] = contexts
    pairs[:, 1] = words
    return pairs


def generate_synthetic_stream(truth: GroundTruthTable, n_tokens: int, seed: int) -> np.ndarray:
    """Generate a token-id chain whose consecutive pairs follow the truth.

    The first token comes from ``context_marginal``; each later token is drawn
    conditional on its predecessor. When the marginal is the stationary
    distribution of ``cond`` (as :func:`make_zipf_truth` arranges), the chain's
    unigram frequencies also converge to the marginal, so the flat-file corpus
    format stays faithful to the truth.
    """
    if n_tokens < 1:
        raise ValueError("n_tokens must be >= 1")
    rng = derive_rng(seed, STREAM_DATA)
    # Inverse-CDF draws, one token at a time: the chain is inherently serial,
    # so each draw bisects a Python list (searchsorted's side="right"). The
    # uniforms come a chunk at a time, the same stream as one call for all.
    cdf = np.cumsum(truth.cond, axis=1)
    cdf[:, -1] = 1.0
    rows = cdf.tolist()
    out = np.empty(n_tokens, dtype=np.int64)
    out[0] = token = int(np.searchsorted(np.cumsum(truth.context_marginal), rng.random(), side="right"))
    for lo in range(1, n_tokens, STREAM_CHUNK):
        chunk = []
        for u in rng.random(min(STREAM_CHUNK, n_tokens - lo)).tolist():
            token = bisect_right(rows[token], u)
            chunk.append(token)
        out[lo : lo + len(chunk)] = chunk
    return out


def _sample_rows(table: np.ndarray, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling, one draw per entry of ``rows`` from that row of
    ``table``, with one uniform per entry drawn in entry order.

    A draw is the number of CDF entries below its uniform u, counted by one
    ``searchsorted(side="left")`` per table row over the draws of that row.
    The count is exact: a cumsum of non-negative numbers never decreases, and
    an entry that rounding leaves above the forced final 1.0 is above every
    u < 1 as well. So memory is O(n + table), never one CDF row per draw.
    """
    cdf = np.cumsum(table, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(rows.shape[0])
    if cdf.shape[0] == 1:
        return np.searchsorted(cdf[0], u, side="left").astype(np.int64, copy=False)
    out = np.empty(rows.shape[0], dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    start = 0
    for r, end in enumerate(np.bincount(rows, minlength=cdf.shape[0]).cumsum().tolist()):
        sel = order[start:end]
        out[sel] = np.searchsorted(cdf[r], u[sel], side="left")
        start = end
    return out


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector of a strictly positive transition matrix."""
    vals, vecs = np.linalg.eig(transition.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


def make_zipf_truth(n_words: int, zipf_s: float, seed: int) -> GroundTruthTable:
    """Build a skewed synthetic truth with Zipf-shaped conditional rows.

    Each row holds probabilities proportional to ``rank**-zipf_s``, assigned to
    words through an independent seeded permutation per context, so every word
    is common after some contexts and rare after others. The context marginal
    is the stationary distribution of the resulting transition matrix, which
    makes chain-generated corpora and pair-sampled corpora agree.
    """
    if n_words < 2:
        raise ValueError("n_words must be >= 2")
    if not np.isfinite(zipf_s):
        raise ValueError(f"zipf exponent must be finite, got {zipf_s}")
    rng = derive_rng(seed, STREAM_DATA, 1)
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    shape = ranks ** (-zipf_s)
    shape /= shape.sum()
    if not np.all(shape > 0):  # a weight underflowed to 0 or overflowed to inf
        raise ValueError(f"zipf exponent {zipf_s} gives a rank weight of 0 or inf over {n_words} words")
    cond = np.empty((n_words, n_words))
    for c in range(n_words):
        cond[c, rng.permutation(n_words)] = shape
    truth = GroundTruthTable(cond=cond, context_marginal=stationary_distribution(cond))
    truth.validate()
    return truth


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_corpus_tokens(path) -> list[str]:
    """Whitespace-split tokens of a text corpus, all lines concatenated."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().split()


def write_corpus_tokens(path, tokens) -> None:
    """Space-separated tokens and a newline, joined ``STREAM_CHUNK`` at a time."""
    tokens = iter(tokens)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(itertools.islice(tokens, STREAM_CHUNK)))
        while chunk := list(itertools.islice(tokens, STREAM_CHUNK)):
            fh.write(" " + " ".join(chunk))
        fh.write("\n")


def write_truth(path, truth: GroundTruthTable, vocab: Vocabulary) -> None:
    """Versioned text format: header, vocab line, marginal line, cond rows."""
    n = truth.n_words
    if len(vocab) != n:
        raise ValueError("vocabulary size does not match truth size")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"gt v1 {n}\n")
        fh.write(" ".join(vocab.words) + "\n")
        fh.write("marginal " + format_row(truth.context_marginal) + "\n")
        for row in truth.cond:
            fh.write(format_row(row) + "\n")


def read_truth(path) -> tuple[GroundTruthTable, Vocabulary]:
    """Read a ground truth written by :func:`write_truth`. ValueError for a bad
    header or one of over ``MAX_VOCAB_SIZE`` words, a line count other than
    3 + N, a vocabulary other than N distinct words, a row other than N
    finite numbers, or tables not distributions."""
    n, lines = read_lines(path, "ground-truth file", _truth_size)
    check_line_count(lines, 3 + n, "ground-truth file")
    words = lines[1].split()
    vocab = build_vocab(words)
    if len(words) != n or len(vocab) != n:
        raise ValueError(f"ground-truth vocabulary line is not {n} distinct words")
    label, _, marginal = lines[2].partition(" ")
    if label != "marginal":
        raise ValueError("bad ground-truth marginal line")
    truth = GroundTruthTable(
        cond=parse_rows(lines[3:], n, "ground-truth conditional table"),
        context_marginal=parse_rows([marginal], n, "ground-truth marginal")[0],
    )
    truth.validate()
    return truth, vocab


def _truth_size(line: str) -> int:
    """N of a ground-truth header line ``gt v1 N``."""
    header = line.split()
    n = int(header[2]) if len(header) == 3 and header[2].isdecimal() else 0
    if header[:2] != ["gt", "v1"] or n < 1:
        raise ValueError(f"bad ground-truth header: {line!r}")
    check_vocab_cap(n)
    return n


def check_vocab_cap(n_words: int) -> None:
    """ValueError for a vocabulary of more than ``MAX_VOCAB_SIZE`` words."""
    if n_words > MAX_VOCAB_SIZE:
        raise ValueError(f"{n_words} words, more than {MAX_VOCAB_SIZE}: {DENSE_GRIDS}")


def read_lines(path, what: str, parse_header):
    """``(parse_header(first line), str.splitlines lines)`` of the UTF-8 file ``path``, the
    header parsed before the rest is read; ValueError naming ``what`` if empty."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise ValueError(f"{what} is empty")
        header = parse_header(head.decode("utf-8").splitlines()[0])
        return header, (head + fh.read()).decode("utf-8").splitlines()


def format_row(values: np.ndarray) -> str:
    """Floats separated by spaces with 17 significant digits, so that
    :func:`parse_rows` reads them back bit-faithfully. Python floats format
    faster than numpy scalars, to the same text."""
    return " ".join(f"{v:.17g}" for v in values.tolist())


def check_line_count(lines, expected: int, what: str) -> None:
    """ValueError unless ``what``, read as ``lines``, holds exactly ``expected`` lines."""
    if len(lines) != expected:
        problem = "truncated" if len(lines) < expected else "has trailing content"
        raise ValueError(f"{what} {problem}: {len(lines)} lines, expected {expected}")


def parse_rows(lines, cols: int, what: str) -> np.ndarray:
    """The (len(lines), cols) float64 array of rows written by :func:`format_row`.

    Raises ValueError naming ``what`` unless every row holds exactly ``cols``
    numbers and every number is finite.
    """
    fields = [line.split() for line in lines]
    for r, row in enumerate(fields, 1):
        if len(row) != cols:
            raise ValueError(f"{what} row {r} has {len(row)} fields, expected {cols}")
    try:
        data = np.array(fields, dtype=np.float64).reshape(len(fields), cols)
    except ValueError as exc:  # names the first field that is not a number
        raise ValueError(f"{what}: {exc}") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{what} holds a non-finite value")
    return data
