"""Why a tiny vocabulary buys us an exact oracle.

Every experiment in this package leans on one trick: with a dozen or so word
types, the softmax partition function Z(c) is a cheap sum, so the model's
normalized distribution and its log likelihood are exactly computable. That
turns "does the sampled objective work?" into a measurable question instead
of a leap of faith.

This script walks the oracle end to end:

  1. build a known generating distribution (Zipf-shaped bigram table),
  2. sample synthetic corpora of increasing size from it,
  3. watch the empirical conditional converge to the truth,
  4. fit the model by exact-gradient MLE and report KL(truth || model).

Run it with no arguments; it finishes in a few seconds.
"""

import numpy as np

from ncelm.corpus import make_zipf_truth, generate_synthetic_corpus, pair_count_matrix
from ncelm.model import log_partitions, log_softmax_matrix
from ncelm.trainer import TrainConfig, cross_entropy, kl_truth_model, train

VOCAB = 12
SEED = 4

truth = make_zipf_truth(VOCAB, 1.2, SEED)

print("ground truth: %d word types, Zipf exponent 1.2" % VOCAB)
print("truth row for context 0 (first five entries):")
print("  " + " ".join("%.4f" % p for p in truth.cond[0, :5]))
print()

# 1. Estimation error of raw counts shrinks like 1/sqrt(n). Use the most
#    frequent context so the per-context sample size actually grows.
c_top = int(np.argmax(truth.context_marginal))
w_top = int(np.argmax(truth.cond[c_top]))
print("empirical vs true conditional p(w=%d | c=%d), truth %.5f:"
      % (w_top, c_top, truth.cond[c_top, w_top]))
print("%10s %12s %12s" % ("tokens", "empirical", "abs error"))
for n_tokens in (1000, 10000, 100000):
    pairs = generate_synthetic_corpus(truth, n_tokens, SEED)
    counts = pair_count_matrix(pairs, VOCAB)
    est = counts[c_top, w_top] / counts[c_top].sum()
    print("%10d %12.5f %12.5f"
          % (n_tokens, est, abs(est - truth.cond[c_top, w_top])))
print()

# 2. Exact-softmax MLE drives the model toward the empirical distribution,
#    so its distance to the truth is bounded by the sampling noise floor.
pairs = generate_synthetic_corpus(truth, 50000, SEED)
cfg = TrainConfig(objective="mle_exact", epochs=20, eval_every=5,
                  learning_rate=0.4, lr_decay=0.95, batch_size=64,
                  seed=SEED, dim=8)
params, history = train(cfg, pairs, VOCAB, truth=truth)

print("exact MLE on 50000 tokens (dim 8):")
print("%6s %15s %12s" % ("epoch", "cross entropy", "KL to truth"))
for row in history:
    print("%6d %15.5f %12.5f" % (row.epoch, row.cross_entropy, row.kl_truth))
print()

# 3. The oracle in action: the fitted row is a genuine distribution and the
#    partition function is known exactly, not estimated.
row0 = np.exp(log_softmax_matrix(params)[0])
print("fitted row for context 0 sums to %.12f" % row0.sum())
print("log Z(0) = %.6f (computed by direct summation)" % log_partitions(params)[0])
print("final KL(truth || model) = %.5f nats" % kl_truth_model(truth, params))
print("final cross entropy      = %.5f nats" % cross_entropy(params, pair_count_matrix(pairs, VOCAB)))
