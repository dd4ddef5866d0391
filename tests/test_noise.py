import numpy as np
import pytest

from ncelm.corpus import build_vocab, pair_count_matrix, pairs_from_tokens
from ncelm.noise import (
    WORD_CHUNK,
    alias_table,
    count_alias_words,
    draws_words,
    flattened,
    parse_noise_spec,
    sample_array,
    uniform,
    unigram,
)
from ncelm.seeding import STREAM_NOISE, derive_rng


def extract_stats(tokens, vocab):
    """The pair count grid of a token stream."""
    return pair_count_matrix(pairs_from_tokens(tokens, vocab), len(vocab))


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
    stats[:, 1] = 0  # simulate a word that never occurred
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


# Each sampler test runs on both draw paths: one multinomial per row, and
# word by word through the alias table of q.
PATHS = pytest.mark.parametrize("words", [False, True], ids=["multinomial", "alias"])


def draw(q, totals, rng, words):
    return sample_array(q, totals, rng, alias_table(q) if words else None)


@PATHS
def test_sampling_matches_probs_within_three_se(words):
    stats = small_stats()
    q = unigram(stats)
    n = 100000
    freq = draw(q, n, derive_rng(5, STREAM_NOISE), words) / n
    se = np.sqrt(q * (1 - q) / n)
    assert np.all(np.abs(freq - q) <= 3 * se)


@PATHS
def test_sampling_is_seed_deterministic(words):
    q = uniform(5)
    totals = np.arange(12).reshape(4, 3)
    a = draw(q, totals, derive_rng(1, STREAM_NOISE, 2), words)
    b = draw(q, totals, derive_rng(1, STREAM_NOISE, 2), words)
    c = draw(q, totals, derive_rng(1, STREAM_NOISE, 3), words)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@PATHS
def test_sample_array_counts_sum_to_totals(words):
    stats = extract_stats(list("aabacbdaaeeaba"), build_vocab(list("abcde")))
    totals = derive_rng(2, STREAM_NOISE).integers(0, 40, (6, 9))
    totals[2, 4] = totals[5] = 0
    for q in (uniform(5), unigram(stats), flattened(stats, 0.5)):
        counts = draw(q, totals, derive_rng(4, STREAM_NOISE), words)
        assert counts.shape == (6, 9, 5) and counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert np.array_equal(counts.sum(axis=-1), totals)
        assert not counts[2, 4].any() and not counts[5].any()


@PATHS
def test_one_call_equals_per_row_calls_bitwise(words):
    # The trainer draws a block of steps in one call, and the reference
    # training loop one step at a time: both must see the same counts. One
    # row longer than two WORD_CHUNKs makes the alias path go through the
    # rows in several groups, one of them that row alone.
    stats = extract_stats(list("aabacbdaaeeaba"), build_vocab(list("abcde")))
    q = flattened(stats, 0.75)
    totals = derive_rng(3, STREAM_NOISE).integers(0, 200, (7, 4))
    totals[1] = 0
    totals[4, 2] = 2 * WORD_CHUNK + 1
    whole = draw(q, totals, derive_rng(6, STREAM_NOISE), words)
    rng = derive_rng(6, STREAM_NOISE)
    rows = [draw(q, row, rng, words) for row in totals]
    assert np.array_equal(whole, np.stack(rows))
    rng = derive_rng(6, STREAM_NOISE)
    cells = [draw(q, t, rng, words) for t in totals.ravel()]
    assert np.array_equal(whole.reshape(-1, 5), np.stack(cells))


def _skewed_q(n_words):
    q = 1.0 / np.arange(1, n_words + 1) ** 1.5
    return derive_rng(8, STREAM_NOISE).permutation(q / q.sum())


@PATHS
def test_rows_follow_the_multinomial_law(words):
    # 20,000 rows of k * n_c = 5 * 7 noise words at |V| 16: the per-cell
    # mean is k n_c q and the covariance k n_c (diag q - q q^T). Each
    # estimate, centred at the true mean, is within 5 of its own standard
    # errors of the law (per-entry false alarm about 6e-7).
    q = _skewed_q(16)
    rows, total = 20_000, 5 * 7
    counts = draw(q, np.full(rows, total), derive_rng(9, STREAM_NOISE), words)
    d = counts - total * q
    assert np.all(np.abs(d.mean(axis=0)) <= 5 * np.sqrt(total * q * (1 - q) / rows))
    prods = d[:, :, None] * d[:, None, :]
    cov = total * (np.diag(q) - np.outer(q, q))
    se = prods.std(axis=0) / np.sqrt(rows)
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5 * se)


def test_alias_draw_equals_a_word_by_word_loop():
    # The reference: per row in C order, per word one uniform u; x = u |V|
    # with integer part i keeps word i below cut[i], else takes i's alias.
    q = _skewed_q(6)
    table = alias_table(q)
    totals = derive_rng(10, STREAM_NOISE).integers(0, 30, (3, 4))
    rng = derive_rng(11, STREAM_NOISE)
    want = np.zeros((3, 4, 6), dtype=np.int64)
    for row in np.ndindex(totals.shape):
        for _ in range(totals[row]):
            x = rng.random() * 6
            i = int(x)
            want[row][i if x < table.cut[i] else table.words[6 + i]] += 1
    assert np.array_equal(sample_array(q, totals, derive_rng(11, STREAM_NOISE), table), want)


def test_uniforms_drawn_ahead_give_each_generators_own_counts():
    # Rows from several generators, each generator's uniforms drawn ahead
    # into one array, are counted in WORD_CHUNK groups that span
    # generators: each generator's rows get the bits of its own
    # sample_array call, and the groups read the array's consecutive slices.
    q = _skewed_q(7)
    table = alias_table(q)
    totals = derive_rng(12, STREAM_NOISE).integers(0, 900, (5, 8))
    totals[2, 3] = WORD_CHUNK + 5
    x = np.concatenate([derive_rng(13, STREAM_NOISE, r).random(t.sum()) for r, t in enumerate(totals)])
    slices = []
    got = count_alias_words(table, totals, lambda words: slices.append(words) or x[words])
    want = [sample_array(q, t, derive_rng(13, STREAM_NOISE, r), table) for r, t in enumerate(totals)]
    assert np.array_equal(got, np.stack(want))
    assert len(slices) > 2 and slices[0].start == 0 and slices[-1].stop == totals.sum()
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))


class _TopUniform:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("n_words", [5, 12])
def test_alias_index_stays_in_the_vocabulary_for_u_just_below_one(n_words):
    q = _skewed_q(n_words)
    table = alias_table(q)
    counts = sample_array(q, np.array([3, 0, 4]), _TopUniform(), table)
    assert counts.shape == (3, n_words)
    assert np.array_equal(counts.sum(axis=1), [3, 0, 4])
    # u * |V| lands in the last column, which keeps its word or gives its alias.
    assert set(np.flatnonzero(counts.sum(axis=0))) <= {n_words - 1, int(table.words[2 * n_words - 1])}


def test_alias_table_columns_give_back_q():
    # Column i keeps word i with probability cut[i] - i and gives the rest
    # to its alias; over the |V| equally likely columns that is q again.
    for q in (uniform(7), _skewed_q(16), _skewed_q(3)):
        n = q.size
        table = alias_table(q)
        keep = table.cut - np.arange(n)
        assert np.all((keep >= 0) & (keep <= 1))
        got = np.bincount(table.words, weights=np.concatenate([keep, 1 - keep]), minlength=n) / n
        assert np.allclose(got, q, rtol=0, atol=1e-15)


def test_draw_path_rule_at_the_benchmark_shapes():
    # |V| 16, batch 64 (the train-* workloads and acceptance 4): k up to 17
    # draws words, so NCE k 1 and NS k 5 do and NCE k 50 keeps the multinomial.
    assert [k for k in (1, 2, 5, 10, 16, 17, 18, 25, 50) if draws_words(k, 64, 16)] == [1, 2, 5, 10, 16, 17]
    assert draws_words(4, 256, 16) and not draws_words(5, 256, 16)
    # A batch past the data trains as one full batch of n: on 100k pairs
    # that step takes the multinomial at any k, as at a batch of 10**12.
    assert not draws_words(1, min(10**12, 100_000), 16)
    assert not draws_words(1, 10**12, 16)
    # The lockstep fixture, |V| 8: k 5 draws words at batches 48 and 8, k 40 does not.
    assert draws_words(5, 48, 8) and draws_words(5, 8, 8)
    assert not draws_words(40, 48, 8) and not draws_words(40, 8, 8)


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
