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
over the sampled noise words, and the exact form, where the noise
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

from .corpus import CorpusStats, Vocabulary
from .model import (
    CellCounts,
    Gradient,
    ModelParams,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    pair_count_matrix,
    residual_gradient,
    score_matrix,
)
from .noise import NoiseDistribution, sample_array
from .seeding import STREAM_PROXY, derive_rng


@dataclass(frozen=True)
class ProxyExample:
    """One record of the two-class proxy corpus."""

    context: int
    true_word: int
    noise_words: np.ndarray  # (k,)


@dataclass(frozen=True)
class ProxyBatch:
    """Column-oriented proxy examples; the form the vectorized math runs on."""

    contexts: np.ndarray  # (n,)
    true_words: np.ndarray  # (n,)
    noise_words: np.ndarray  # (n, k)

    @property
    def n_examples(self) -> int:
        return self.contexts.shape[0]

    @property
    def k(self) -> int:
        return self.noise_words.shape[1]

    def examples(self):
        for i in range(self.n_examples):
            yield ProxyExample(
                context=int(self.contexts[i]),
                true_word=int(self.true_words[i]),
                noise_words=self.noise_words[i].copy(),
            )


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


def as_batch(examples, k: int | None = None) -> ProxyBatch:
    """Normalize a ProxyBatch or a sequence of ProxyExample records.

    Every example must carry the same number of noise words; with ``k`` given,
    that number must equal it.
    """
    if isinstance(examples, ProxyBatch):
        batch = examples
    else:
        examples = list(examples)
        if not examples:
            raise ValueError("empty proxy example sequence")
        widths = {len(ex.noise_words) for ex in examples}
        if len(widths) != 1:
            raise ValueError(f"k mismatch: examples carry {sorted(widths)} noise words")
        batch = ProxyBatch(
            contexts=np.array([ex.context for ex in examples], dtype=np.int64),
            true_words=np.array([ex.true_word for ex in examples], dtype=np.int64),
            noise_words=np.array([ex.noise_words for ex in examples], dtype=np.int64),
        )
    if k is not None and batch.k != k:
        raise ValueError(f"k mismatch: examples carry {batch.k} noise words, config says {k}")
    return batch


# ---------------------------------------------------------------------------
# Mixture and posteriors
# ---------------------------------------------------------------------------

def mixture_joint(
    stats: CorpusStats, d: int, word_id: int, context_id: int, k: int, q: NoiseDistribution
) -> float:
    """Joint probability of (label, word) given a context in the proxy mixture."""
    if d not in (0, 1):
        raise ValueError("label d must be 0 or 1")
    if d == 0:
        return k / (1.0 + k) * float(q.probs[word_id])
    if stats.context_counts[context_id] == 0:
        raise ValueError(f"unseen context id {context_id}")
    p_emp = stats.bigram_counts[context_id, word_id] / stats.context_counts[context_id]
    return 1.0 / (1.0 + k) * p_emp


def posterior_true_empirical(
    stats: CorpusStats, word_id: int, context_id: int, k: int, q: NoiseDistribution
) -> float:
    """Probability the sample is true, written with the empirical conditional."""
    if stats.context_counts[context_id] == 0:
        raise ValueError(f"unseen context id {context_id}")
    p_emp = stats.bigram_counts[context_id, word_id] / stats.context_counts[context_id]
    return p_emp / (p_emp + k * float(q.probs[word_id]))


def posterior_true_model(
    params: ModelParams, word_id: int, context_id: int, cfg: NceConfig
) -> float:
    """Probability the sample is true, written with the model weight."""
    delta = classifier_logits(
        params, np.array([context_id]), np.array([word_id]), cfg
    )[0]
    return float(_sigmoid(np.array([delta]))[0])


def posterior_noise_model(
    params: ModelParams, word_id: int, context_id: int, cfg: NceConfig
) -> float:
    return 1.0 - posterior_true_model(params, word_id, context_id, cfg)


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

def cell_counts(batch: ProxyBatch, n_contexts: int, n_words: int) -> CellCounts:
    """True and noise sample counts of a batch per (context, word) cell."""
    size = n_contexts * n_words
    ctx = batch.contexts * n_words
    true = np.bincount(ctx + batch.true_words, minlength=size)
    noise = np.bincount((ctx[:, None] + batch.noise_words).ravel(), minlength=size)
    return CellCounts(true.reshape(n_contexts, n_words), noise.reshape(n_contexts, n_words))


def as_counts(examples, params: ModelParams, k: int | None = None) -> CellCounts:
    """Cell counts of a CellCounts, a ProxyBatch or a sequence of
    ProxyExample records; with ``k`` given, there must be k noise samples
    per true sample."""
    if not isinstance(examples, CellCounts):
        return cell_counts(as_batch(examples, k), params.n_contexts, params.n_words)
    if k is not None and int(examples.noise.sum()) != k * int(examples.true.sum()):
        raise ValueError(
            f"k mismatch: counts hold {examples.noise.sum()} noise samples for "
            f"{examples.true.sum()} true samples, config says k={k}"
        )
    return examples


def _delta_grid(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta on every (context, word) cell, shape (n_contexts, n_words)."""
    return classifier_logits(
        params, np.arange(params.n_contexts), np.arange(params.n_words)[None, :], cfg
    )


def mc_loss(params: ModelParams, examples, cfg: NceConfig) -> float:
    """Sampled two-class log-likelihood of the proxy examples.

    Per example: log-posterior of the true word plus the log noise-posterior
    of each of its k sampled noise words, summed here per cell.
    """
    counts = as_counts(examples, params, cfg.k)
    delta = _delta_grid(params, cfg)
    return float(
        np.vdot(counts.true, _log_sigmoid(delta)) + np.vdot(counts.noise, _log_sigmoid(-delta))
    )


def mc_grad(params: ModelParams, examples, cfg: NceConfig) -> Gradient:
    """Exact gradient of :func:`mc_loss` in the active parameter blocks.

    The true word pushes with weight (1 - sigma), each noise word pulls with
    weight sigma, both through d(log u_adjusted)/d(theta); per cell this is
    the residual ``T sigma(-Delta) - N sigma(Delta)``.
    """
    counts = as_counts(examples, params, cfg.k)
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

def exact_loss(params: ModelParams, pairs: np.ndarray, cfg: NceConfig) -> float:
    """Proxy objective with the noise expectation summed over the vocabulary.

    Per observed pair: log-posterior of the true word plus k times the
    q-expectation of the log noise-posterior. The Monte Carlo objective is an
    unbiased estimate of this quantity.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.shape[0] == 0:
        raise ValueError("exact_loss needs at least one pair")
    counts = pair_count_matrix(pairs, params.n_words)
    noise_counts = counts.sum(axis=1, keepdims=True) * cfg.k * cfg.q.probs
    delta = _logit_rows(params, cfg)
    return float(np.vdot(counts, _log_sigmoid(delta)) + np.vdot(noise_counts, _log_sigmoid(-delta)))


def exact_grad_analysis(params: ModelParams, stats: CorpusStats, cfg: NceConfig) -> Gradient:
    """Gradient of the exact objective in classifier-weighted residual form.

    For each seen context (weighted by its count) and each vocabulary word:

        k q(w) / (u_adj + k q(w)) * (p_emp(w|c) - u_adj(w,c)) * d log u_adj

    which is zero exactly when the adjusted model weight matches the
    empirical conditional. Computed stably as the residual
    ``N(c, w) sigma(-Delta) - n_c k q(w) sigma(Delta)``, which is n_c times
    ``sigma(-Delta) * p_emp - k q(w) * sigma(Delta)`` per cell.
    """
    n_c = stats.context_counts.astype(np.float64)
    if not np.any(n_c > 0):
        raise ValueError("exact_grad_analysis needs nonempty statistics")
    delta = _logit_rows(params, cfg)
    kq = cfg.k * cfg.q.probs[None, :]
    residual = stats.bigram_counts * _sigmoid(-delta) - n_c[:, None] * kq * _sigmoid(delta)
    return residual_gradient(params, residual, cfg.z_mode)


def _logit_rows(params: ModelParams, cfg: NceConfig) -> np.ndarray:
    """Delta over the whole vocabulary for every context, (n_contexts, n_words)."""
    s = score_matrix(params)
    if cfg.z_mode == Z_LEARNED_ZC:
        s -= params.log_zc[:, None]
    s -= cfg.log_kq
    return s


# ---------------------------------------------------------------------------
# Proxy corpus generation
# ---------------------------------------------------------------------------

def gen_proxy_batch(
    pairs: np.ndarray, q: NoiseDistribution, k: int, seed: int
) -> ProxyBatch:
    """One proxy example per observed pair, in corpus order, fresh noise."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = np.asarray(pairs, dtype=np.int64)
    rng = derive_rng(seed, STREAM_PROXY)
    noise = sample_array(q, (pairs.shape[0], k), rng)
    return ProxyBatch(contexts=pairs[:, 0], true_words=pairs[:, 1], noise_words=noise)


def gen_proxy_sampled(
    stats: CorpusStats, q: NoiseDistribution, k: int, n_examples: int, seed: int
) -> ProxyBatch:
    """Independent examples: (c, w) from the empirical joint, noise from q."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = derive_rng(seed, STREAM_PROXY)
    joint = stats.bigram_counts.ravel() / stats.total_tokens
    flat = rng.choice(joint.size, size=n_examples, p=joint)
    pairs = np.stack([flat // stats.n_words, flat % stats.n_words], axis=1)
    noise = sample_array(q, (n_examples, k), rng)
    return ProxyBatch(contexts=pairs[:, 0], true_words=pairs[:, 1], noise_words=noise)


def gen_proxy(
    source, q: NoiseDistribution, k: int, seed: int, mode: str = "epoch", n_examples: int | None = None
):
    """Stream of ProxyExample records.

    ``mode="epoch"``: ``source`` is a (n, 2) pair array; one example per pair.
    ``mode="sample"``: ``source`` is a CorpusStats; ``n_examples`` independent
    draws from the empirical joint. Deterministic given the seed.
    """
    if mode == "epoch":
        batch = gen_proxy_batch(source, q, k, seed)
    elif mode == "sample":
        if n_examples is None:
            raise ValueError("sample mode needs n_examples")
        batch = gen_proxy_sampled(source, q, k, n_examples, seed)
    else:
        raise ValueError(f"unknown proxy mode {mode!r}")
    yield from batch.examples()


def write_proxy_dump(examples, vocab: Vocabulary, fh) -> None:
    """Debug format: ``<context> <true> | <noise_1> ... <noise_k>`` per line."""
    batch = examples if isinstance(examples, ProxyBatch) else as_batch(examples)
    for i in range(batch.n_examples):
        ctx = vocab.context_token(int(batch.contexts[i]))
        true = vocab.word_of(int(batch.true_words[i]))
        noise = " ".join(vocab.word_of(int(w)) for w in batch.noise_words[i])
        fh.write(f"{ctx} {true} | {noise}\n")
