"""Noise distributions and drawing noise as counts.

Contrastive training needs a stream of "noise" words drawn from a known
distribution q. Three families are supported, all derived from corpus counts:

  uniform         every word equally likely
  unigram         proportional to corpus frequency
  flattened:a     unigram raised to the power a (0 < a < 1), which lifts
                  the tail; a = 0.75 is the usual compromise

The estimators see noise words only through how often each one was drawn,
so n independent draws from q are made directly as one Multinomial(n, q)
count vector, in one of two ways: as one multinomial, whose cost follows the
vocabulary, not n, or word by word through Walker's alias table, one uniform
per word, which the trainer takes when its steps hold few noise words for
the vocabulary. The audit below draws 200000 words both ways and checks
every word's frequency against q, in units of the binomial standard error.
"""

import numpy as np

from ncelm.corpus import generate_synthetic_corpus, make_zipf_truth, pair_count_matrix
from ncelm.noise import alias_table, flattened, sample_array, uniform, unigram
from ncelm.seeding import STREAM_NOISE, derive_rng

VOCAB = 8
truth = make_zipf_truth(VOCAB, 1.4, 2)
pairs = generate_synthetic_corpus(truth, 30000, 2)
counts = pair_count_matrix(pairs, VOCAB)

q_uni = uniform(VOCAB)
q_freq = unigram(counts)
q_flat = flattened(counts, 0.75)

print("noise probabilities per word id:")
print("%4s %10s %10s %10s %14s" % ("id", "count", "uniform", "unigram", "flattened:0.75"))
for w in range(VOCAB):
    print("%4d %10d %10.5f %10.5f %14.5f"
          % (w, counts[:, w].sum(), q_uni[w], q_freq[w], q_flat[w]))
print()

# Flattening compresses the dynamic range of q.
for name, q in (("uniform", q_uni), ("unigram", q_freq), ("flattened", q_flat)):
    ratio = q.max() / q.min()
    print("%-10s max/min probability ratio %8.2f" % (name, ratio))
print()

# Statistical audit: frequencies from one seeded count vector against q, in
# units of the binomial standard error, drawn as a multinomial and word by
# word.
n = 200000
se = np.sqrt(q_flat * (1 - q_flat) / n)
freqs = [sample_array(q_flat, n, derive_rng(0, STREAM_NOISE), table) / n
         for table in (None, alias_table(q_flat))]
print("%4s %10s %12s %8s %12s %8s" % ("id", "expected", "multinomial", "z", "alias", "z"))
for w in range(VOCAB):
    cols = [(f[w], (f[w] - q_flat[w]) / se[w]) for f in freqs]
    print("%4d %10.5f %12.5f %8.2f %12.5f %8.2f" % (w, q_flat[w], *cols[0], *cols[1]))
print()
for name, f in zip(("multinomial", "alias"), freqs):
    print("%-11s largest |z| over %d draws: %.2f standard errors"
          % (name, n, np.abs((f - q_flat) / se).max()))
