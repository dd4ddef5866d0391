import numpy as np
import pytest

from ncelm.corpus import build_vocab, pairs_from_tokens, stats_from_pairs
from ncelm.noise import flattened, parse_noise_spec, sample_array, uniform, unigram
from ncelm.seeding import STREAM_NOISE, derive_rng


def extract_stats(tokens, vocab):
    """Bigram and unigram counts of a token stream."""
    return stats_from_pairs(pairs_from_tokens(tokens, vocab), len(vocab))


def small_stats():
    v = build_vocab(["a", "b", "c"])
    # unigram counts: a=4, b=2, c=2
    return extract_stats(["a", "b", "a", "c", "a", "b", "a", "c"], v)


def test_uniform_probs():
    q = uniform(4)
    assert np.allclose(q, 0.25)
    with pytest.raises(ValueError):
        uniform(1)


def test_unigram_probs_hand_counts():
    q = unigram(small_stats())
    assert np.allclose(q, [0.5, 0.25, 0.25])


def test_unigram_rejects_unseen_word():
    v = build_vocab(["a", "b"])
    stats = extract_stats(["a", "a", "b"], v)
    stats.unigram_counts[1] = 0  # simulate a word that never occurred
    with pytest.raises(ValueError, match="1"):
        unigram(stats)


def test_flattened_hand_values_and_bounds():
    stats = small_stats()
    q = flattened(stats, 0.75)
    raw = np.array([4.0, 2.0, 2.0]) ** 0.75
    assert np.allclose(q, raw / raw.sum())
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="exponent"):
            flattened(stats, bad)


def test_flattening_moves_toward_uniform():
    stats = small_stats()
    sharp = unigram(stats)
    flat = flattened(stats, 0.5)
    # flattening shrinks the spread but keeps the ordering
    assert flat.max() < sharp.max()
    assert flat.min() > sharp.min()
    assert np.array_equal(np.argsort(flat), np.argsort(sharp))


def test_sampling_matches_probs_within_three_se():
    stats = small_stats()
    q = unigram(stats)
    n = 100000
    freq = sample_array(q, n, derive_rng(5, STREAM_NOISE)) / n
    se = np.sqrt(q * (1 - q) / n)
    assert np.all(np.abs(freq - q) <= 3 * se)


def test_sampling_is_seed_deterministic():
    q = uniform(5)
    totals = np.arange(12).reshape(4, 3)
    a = sample_array(q, totals, derive_rng(1, STREAM_NOISE, 2))
    b = sample_array(q, totals, derive_rng(1, STREAM_NOISE, 2))
    c = sample_array(q, totals, derive_rng(1, STREAM_NOISE, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_array_counts_sum_to_totals():
    stats = extract_stats(list("aabacbdaaeeaba"), build_vocab(list("abcde")))
    totals = derive_rng(2, STREAM_NOISE).integers(0, 40, (6, 9))
    totals[2, 4] = totals[5] = 0
    for q in (uniform(5), unigram(stats), flattened(stats, 0.5)):
        counts = sample_array(q, totals, derive_rng(4, STREAM_NOISE))
        assert counts.shape == (6, 9, 5) and counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert np.array_equal(counts.sum(axis=-1), totals)
        assert not counts[2, 4].any() and not counts[5].any()


def test_one_call_equals_per_row_calls_bitwise():
    # The trainer draws a block of steps in one call, and the reference
    # training loop one step at a time: both must see the same counts.
    stats = extract_stats(list("aabacbdaaeeaba"), build_vocab(list("abcde")))
    q = flattened(stats, 0.75)
    totals = derive_rng(3, STREAM_NOISE).integers(0, 200, (7, 4))
    totals[1] = 0
    whole = sample_array(q, totals, derive_rng(6, STREAM_NOISE))
    rng = derive_rng(6, STREAM_NOISE)
    rows = [sample_array(q, row, rng) for row in totals]
    assert np.array_equal(whole, np.stack(rows))
    rng = derive_rng(6, STREAM_NOISE)
    cells = [sample_array(q, t, rng) for t in totals.ravel()]
    assert np.array_equal(whole.reshape(-1, 5), np.stack(cells))


def test_parse_noise_spec():
    stats = small_stats()
    for spec, want in (("uniform", uniform(3)), (" unigram ", unigram(stats)),
                       ("flattened:0.75", flattened(stats, 0.75))):
        assert parse_noise_spec(spec, stats).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="unknown noise spec"):
        parse_noise_spec("gaussian", stats)
    with pytest.raises(ValueError, match="exponent"):
        parse_noise_spec("flattened:oops", stats)
    # The endpoints have their own specs: alpha 1 is unigram, not flattened.
    with pytest.raises(ValueError, match=r"out of range \(0, 1\): 1.0"):
        parse_noise_spec("flattened:1", stats)
