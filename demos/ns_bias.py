"""Negative sampling is biased, and the bias is predictable.

Negative sampling looks like NCE with the log(k q(w)) correction deleted
from the classifier logit. That deletion is not free: the population optimum
of the simplified objective is no longer the data distribution but

    optimum(w | c)  proportional to  p(w | c) / q(w),

renormalized over the vocabulary. With uniform noise q the division is a
constant and cancels, so the optimum is still p. With unigram noise the
frequent words get divided down and the fitted distribution tilts toward
the tail.

Because our vocabulary is tiny we can do what is normally impossible:
compute that tilted optimum in closed form from the generating table and
check that training actually lands on it. The script trains three models
with the same data, capacity, and schedule, so the only difference is the
objective and the noise:

    NCE, unigram noise   correction included, should stay near MLE
    NS,  uniform noise   correction absent but constant, still near MLE
    NS,  unigram noise   correction absent and varying, visibly biased

Runtime is about fifteen seconds.
"""

import numpy as np

from ncelm.corpus import generate_synthetic_corpus, make_zipf_truth, pair_count_matrix
from ncelm.model import log_softmax_matrix
from ncelm.noise import unigram
from ncelm.trainer import TrainConfig, kl_truth_model, train, train_lockstep

VOCAB = 16
SEED = 0

truth = make_zipf_truth(VOCAB, 1.8, 7)
pairs = generate_synthetic_corpus(truth, 100000, 7)
counts = pair_count_matrix(pairs, VOCAB)
base = dict(k=5, learning_rate=0.4, lr_decay=0.95, epochs=25, eval_every=25,
            batch_size=64, seed=SEED, dim=16)

nce_params, _ = train(TrainConfig(objective="nce", z_mode="learned_zc",
                                  noise="unigram", **base), pairs, VOCAB)
# The two NS runs differ only in their noise, so they train in lockstep.
(ns_uniform, _), (ns_unigram, _) = train_lockstep(
    [TrainConfig(objective="ns", noise=q_name, **base) for q_name in ("uniform", "unigram")],
    pairs, VOCAB)
fitted = {
    "NCE, unigram noise": nce_params,
    "NS,  uniform noise": ns_uniform,
    "NS,  unigram noise": ns_unigram,
}

print("KL(truth || model) after identical training budgets, dim 16:")
for label, params in fitted.items():
    print("  %-20s %8.4f nats" % (label, kl_truth_model(truth, params)))
print()

# Closed-form prediction of where biased NS should land: divide each truth
# row by the actual noise probabilities used in training, then renormalize.
q = unigram(counts)
tilted = truth.cond / q
tilted /= tilted.sum(axis=1, keepdims=True)
pred_kl = float(np.mean([
    np.sum(truth.cond[c] * (np.log(truth.cond[c]) - np.log(tilted[c])))
    for c in range(VOCAB)
]))
print("predicted KL if the model converges to p/q renormalized: %.4f nats" % pred_kl)

# Row-level check for the most frequent context: the fitted distribution
# should track the tilted row, not the truth row.
params = fitted["NS,  unigram noise"]
c = int(np.argmax(truth.context_marginal))
row = np.exp(log_softmax_matrix(params)[c])
print()
print("context %d, five most frequent words:" % c)
print("%4s %10s %10s %10s" % ("id", "truth", "tilted", "fitted"))
for w in np.argsort(-truth.cond[c])[:5]:
    print("%4d %10.5f %10.5f %10.5f" % (w, truth.cond[c, w], tilted[c, w], row[w]))
print()
print("max abs gap, fitted vs truth : %.4f" % np.abs(row - truth.cond[c]).max())
print("max abs gap, fitted vs tilted: %.4f" % np.abs(row - tilted[c]).max())
