"""Noise distributions and drawing noise as counts.

Contrastive training needs a stream of "noise" words drawn from a known
distribution q. Three families are supported, all derived from corpus counts:

  uniform         every word equally likely
  unigram         proportional to corpus frequency
  flattened:a     unigram raised to the power a (0 < a < 1), which lifts
                  the tail; a = 0.75 is the usual compromise

The estimators see noise words only through how often each one was drawn,
so n independent draws from q are made directly as one Multinomial(n, q)
count vector: the cost follows the vocabulary, not n. The audit below draws
200000 words this way and checks every word's frequency against q, in units
of the binomial standard error.
"""

import numpy as np

from ncelm.corpus import generate_synthetic_corpus, make_zipf_truth, stats_from_pairs
from ncelm.noise import flattened, sample_array, uniform, unigram
from ncelm.seeding import STREAM_NOISE, derive_rng

VOCAB = 8
truth = make_zipf_truth(VOCAB, 1.4, 2)
pairs = generate_synthetic_corpus(truth, 30000, 2)
stats = stats_from_pairs(pairs, VOCAB)

q_uni = uniform(VOCAB)
q_freq = unigram(stats)
q_flat = flattened(stats, 0.75)

print("noise probabilities per word id:")
print("%4s %10s %10s %10s %14s" % ("id", "count", "uniform", "unigram", "flattened:0.75"))
for w in range(VOCAB):
    print("%4d %10d %10.5f %10.5f %14.5f"
          % (w, stats.unigram_counts[w], q_uni[w], q_freq[w], q_flat[w]))
print()

# Flattening compresses the dynamic range of q.
for name, q in (("uniform", q_uni), ("unigram", q_freq), ("flattened", q_flat)):
    ratio = q.max() / q.min()
    print("%-10s max/min probability ratio %8.2f" % (name, ratio))
print()

# Statistical audit: frequencies from one seeded count vector against q, in
# units of the binomial standard error.
n = 200000
freq = sample_array(q_flat, n, derive_rng(0, STREAM_NOISE)) / n
se = np.sqrt(q_flat * (1 - q_flat) / n)
print("%4s %10s %10s %8s" % ("id", "expected", "observed", "z"))
for w in range(VOCAB):
    z = (freq[w] - q_flat[w]) / se[w]
    print("%4d %10.5f %10.5f %8.2f" % (w, q_flat[w], freq[w], z))
print()
print("largest |z| over %d draws: %.2f standard errors"
      % (n, np.abs((freq - q_flat) / se).max()))
