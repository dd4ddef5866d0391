"""Reference representation of a sampled batch, for the tests.

The sampled kernels take a batch only as per-cell counts
(``model.CellCounts``). Tests describe a batch the way the paper does, one
record per observed pair with its k noise words, and count it here; scalar
scores and posteriors are written out from their definitions, independent
of the vectorized code they check.
"""

import math
from dataclasses import dataclass

import numpy as np

from ncelm.model import CellCounts


@dataclass(frozen=True)
class ProxyBatch:
    """Column-oriented proxy examples: pair i is (contexts[i], true_words[i])
    and its noise words are noise_words[i]."""

    contexts: np.ndarray  # (n,)
    true_words: np.ndarray  # (n,)
    noise_words: np.ndarray  # (n, k)

    @property
    def n_examples(self) -> int:
        return self.contexts.shape[0]

    @property
    def k(self) -> int:
        return self.noise_words.shape[1]


def cell_counts(batch: ProxyBatch, n_contexts: int, n_words: int) -> CellCounts:
    """True and noise sample counts of a batch per (context, word) cell,
    each noise word counted in the cell of its own pair's context."""
    size = n_contexts * n_words
    ctx = batch.contexts * n_words
    true = np.bincount(ctx + batch.true_words, minlength=size)
    noise = np.bincount((ctx[:, None] + batch.noise_words).ravel(), minlength=size)
    return CellCounts(true.reshape(n_contexts, n_words), noise.reshape(n_contexts, n_words))


def score(params, c: int, w: int) -> float:
    """s(w, c) = target_emb[w] . context_emb[c] + bias[w]."""
    return float(params.target_emb[w] @ params.context_emb[c] + params.bias[w])


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))
