"""Noise contrastive estimation closes in on maximum likelihood as k grows.

The contrastive objective reframes density estimation as classification:
given one corpus pair and k noise words, score each candidate by how much
more likely the model thinks it is than the noise distribution does. Its
population optimum approaches the MLE optimum as k increases, and with a
deliberately undersized model the gap is visible at small k.

Act one trains the same capacity-limited model (dim 4, so it cannot just
memorize the table) under exact MLE and under NCE with k = 1, 5, 25 noise
words per pair, then compares final KL(truth || model). Expect a decreasing
sequence that approaches the MLE figure from above.

Act two looks at the partition function. With z pinned to 1 the objective
has no normalizer to lean on, so it pushes the raw scores to normalize
themselves: log Z(c) lands near zero for every context. With a learned
per-context normalizer z_c the scores are free to drift, but the learned
log z_c tracks the true log Z(c) closely. Either way the expensive sum
never has to be computed during training, which is the point of NCE.
Runtime is roughly ten seconds.
"""

import numpy as np

from ncelm.corpus import generate_synthetic_corpus, make_zipf_truth
from ncelm.model import log_partitions
from ncelm.trainer import TrainConfig, kl_truth_model, train, train_lockstep

VOCAB = 12
SEED = 3

truth = make_zipf_truth(VOCAB, 1.8, SEED)
pairs = generate_synthetic_corpus(truth, 30000, SEED)
base = dict(learning_rate=0.4, lr_decay=0.95, epochs=15, eval_every=15,
            batch_size=64, seed=SEED, dim=4)

mle_params, _ = train(TrainConfig(objective="mle_exact", **base), pairs, VOCAB)
mle_kl = kl_truth_model(truth, mle_params)

print("act one: KL(truth || model) after 15 epochs, dim 4, unigram noise")
print("%12s %14s" % ("objective", "final KL"))
print("%12s %14.5f" % ("MLE", mle_kl))
# The k grid trains in lockstep: one stack of runs, each bitwise its solo run.
ks = (1, 5, 25)
nce_runs = list(train_lockstep([TrainConfig(objective="nce", k=k, z_mode="fixed_one",
                                            noise="unigram", **base) for k in ks], pairs, VOCAB))
for k, (params, _) in zip(ks, nce_runs):
    print("%12s %14.5f" % ("NCE k=%d" % k, kl_truth_model(truth, params)))
print()

# Self-normalization: with z pinned to 1 the objective itself pushes the
# unnormalized scores toward summing to one in every context.
params, history = nce_runs[-1]  # act one's k = 25 run
lz = log_partitions(params)[:VOCAB]

print("act two: the partition function takes care of itself, k = 25")
print("z fixed at 1: log Z over the %d contexts spans [%+.4f, %+.4f]"
      % (VOCAB, lz.min(), lz.max()))
print("              median |log Z| = %.4f nats (0 is perfectly normalized)"
      % history[-1].median_abs_log_z)

# With a learned normalizer the scores need not self-normalize, but the
# learned constant converges to the true one.
cfg = TrainConfig(objective="nce", k=25, z_mode="learned_zc",
                  noise="unigram", **base)
params, _ = train(cfg, pairs, VOCAB)
gap = np.abs(params.log_zc[:VOCAB] - log_partitions(params)[:VOCAB])
print("z learned:    |log z_c - log Z(c)| median %.4f, max %.4f nats"
      % (np.median(gap), gap.max()))
