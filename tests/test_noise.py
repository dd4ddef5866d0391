import numpy as np
import pytest

from ncelm import noise
from ncelm.corpus import build_vocab, extract_stats
from ncelm.noise import (
    flattened,
    induced_probs,
    parse_noise_spec,
    sample_array,
    uniform,
    unigram,
)
from ncelm.seeding import STREAM_NOISE, derive_rng


def small_stats():
    v = build_vocab(["a", "b", "c"])
    # unigram counts: a=4, b=2, c=2
    return extract_stats(["a", "b", "a", "c", "a", "b", "a", "c"], v)


def test_uniform_probs():
    q = uniform(4)
    assert np.allclose(q.probs, 0.25)
    with pytest.raises(ValueError):
        uniform(1)


def test_unigram_probs_hand_counts():
    q = unigram(small_stats())
    assert np.allclose(q.probs, [0.5, 0.25, 0.25])


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
    assert np.allclose(q.probs, raw / raw.sum())
    assert q.alpha == 0.75
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="exponent"):
            flattened(stats, bad)


def test_flattening_moves_toward_uniform():
    stats = small_stats()
    sharp = unigram(stats).probs
    flat = flattened(stats, 0.5).probs
    # flattening shrinks the spread but keeps the ordering
    assert flat.max() < sharp.max()
    assert flat.min() > sharp.min()
    assert np.array_equal(np.argsort(flat), np.argsort(sharp))


def test_alias_tables_induce_exact_distribution():
    # Structural audit: walking the alias tables reproduces the probabilities
    # without drawing a single sample.
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 16, 50):
        p = rng.random(n) + 1e-3
        p /= p.sum()
        q = noise._build(p, "unigram")
        assert np.allclose(induced_probs(q), p, atol=1e-15, rtol=0)
    skewed = np.array([0.94, 0.02, 0.02, 0.02])
    assert np.allclose(induced_probs(noise._build(skewed, "unigram")), skewed, atol=1e-15)


def test_sampling_matches_probs_within_three_se():
    stats = small_stats()
    q = unigram(stats)
    n = 100000
    draws = sample_array(q, (n,), derive_rng(5, STREAM_NOISE))
    freq = np.bincount(draws, minlength=3) / n
    se = np.sqrt(q.probs * (1 - q.probs) / n)
    assert np.all(np.abs(freq - q.probs) <= 3 * se)


def test_alias_and_cdf_scan_agree_statistically():
    # Independent linear-scan inverse-CDF sampler as a reference; both must sit
    # within 3 standard errors of the target cell probabilities.
    rng = np.random.default_rng(9)
    p = rng.random(6) + 0.05
    p /= p.sum()
    q = noise._build(p, "unigram")
    n = 100000
    alias_draws = sample_array(q, (n,), derive_rng(8, STREAM_NOISE))
    cdf = np.cumsum(p)
    cdf_draws = np.searchsorted(cdf, derive_rng(13, STREAM_NOISE).random(n), side="right")
    se = np.sqrt(p * (1 - p) / n)
    for draws in (alias_draws, cdf_draws):
        freq = np.bincount(draws, minlength=6) / n
        assert np.all(np.abs(freq - p) <= 3 * se)


def test_sampling_is_seed_deterministic():
    q = uniform(5)
    a = sample_array(q, (4, 3), derive_rng(1, STREAM_NOISE, 2))
    b = sample_array(q, (4, 3), derive_rng(1, STREAM_NOISE, 2))
    c = sample_array(q, (4, 3), derive_rng(1, STREAM_NOISE, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_array_matches_two_gather_alias_lookup():
    stats = extract_stats(list("aabacbdaaeeaba"), build_vocab(list("abcde")))
    for q in (uniform(5), unigram(stats), flattened(stats, 0.5)):
        rng = derive_rng(4, STREAM_NOISE)
        idx = rng.integers(0, q.n_words, size=(200, 7))
        keep = rng.random(size=(200, 7)) < q.accept[idx]
        want = np.where(keep, idx, q.alias[idx])
        got = sample_array(q, (200, 7), derive_rng(4, STREAM_NOISE))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_parse_noise_spec():
    stats = small_stats()
    assert parse_noise_spec("uniform", None, 3).kind == "uniform"
    assert parse_noise_spec("unigram", stats, 3).kind == "unigram"
    q = parse_noise_spec("flattened:0.75", stats, 3)
    assert q.kind == "flattened" and q.alpha == 0.75
    with pytest.raises(ValueError, match="needs corpus statistics"):
        parse_noise_spec("unigram", None, 3)
    with pytest.raises(ValueError, match="unknown noise spec"):
        parse_noise_spec("gaussian", stats, 3)
    with pytest.raises(ValueError, match="exponent"):
        parse_noise_spec("flattened:oops", stats, 3)
