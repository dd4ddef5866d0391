import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncelm import corpus
from ncelm.corpus import (
    BOS_TOKEN,
    build_vocab,
    format_row,
    generate_synthetic_corpus,
    generate_synthetic_stream,
    make_zipf_truth,
    pair_count_matrix,
    pairs_from_tokens,
    parse_rows,
    read_corpus_tokens,
    read_truth,
    stationary_distribution,
    write_corpus_tokens,
    write_truth,
)
from ncelm.seeding import STREAM_DATA, derive_rng


def test_build_vocab_first_occurrence_order():
    v = build_vocab(["b", "a", "b", "c", "a"])
    assert v.words == ("b", "a", "c")
    assert v.index["a"] == 1
    assert v.words[2] == "c"
    assert v.bos_context == 3


def test_build_vocab_rejects_reserved_and_degenerate():
    with pytest.raises(ValueError, match="reserved"):
        build_vocab(["a", BOS_TOKEN])
    with pytest.raises(ValueError, match="degenerate"):
        build_vocab(["a", "a", "a"])


def test_pairs_from_tokens_hand_example():
    v = build_vocab(["a", "b"])
    pairs = pairs_from_tokens(["a", "b", "a"], v)
    # first token is conditioned on the sentence-start context
    expected = np.array([[2, 0], [0, 1], [1, 0]])
    assert np.array_equal(pairs, expected)


def test_pairs_from_tokens_errors():
    v = build_vocab(["a", "b"])
    with pytest.raises(ValueError, match="'c' at position 2"):
        pairs_from_tokens(["a", "b", "c"], v)
    with pytest.raises(ValueError, match="empty"):
        pairs_from_tokens([], v)


def _loop_pairs_from_tokens(tokens, vocab):
    """Reference for ``pairs_from_tokens``: one dict lookup per token, raising
    at the first unknown one."""
    ids = []
    for pos, tok in enumerate(tokens):
        if tok not in vocab.index:
            raise ValueError(f"unknown token {tok!r} at position {pos}")
        ids.append(vocab.index[tok])
    if not ids:
        raise ValueError("empty token stream")
    return np.array([[vocab.bos_context] + ids[:-1], ids], dtype=np.int64).T


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    known=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=60),
    unknown=st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from(["e", "A", "", " ", "<s>", "ä", "b "])),
        max_size=4,
    ),
)
def test_pairs_from_tokens_equals_the_loop(known, unknown):
    # Tokens of the vocabulary with unknown tokens inserted at random
    # positions: the same pairs, or the same error naming the first unknown
    # token and its position.
    vocab = build_vocab(["a", "b", "c", "d"])
    tokens = list(known)
    for pos, tok in unknown:
        tokens.insert(min(pos, len(tokens)), tok)
    try:
        want = _loop_pairs_from_tokens(tokens, vocab)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            pairs_from_tokens(tokens, vocab)
        assert str(got.value) == str(exc)
    else:
        got = pairs_from_tokens(tokens, vocab)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_stats_hand_counts():
    v = build_vocab(["a", "b"])
    grid = pair_count_matrix(pairs_from_tokens(["a", "a", "b", "a"], v), len(v))
    # bigrams: (<s>,a) (a,a) (a,b) (b,a); contexts: a twice, b once, <s> once
    assert grid.dtype == np.int64
    assert np.array_equal(grid, [[1, 1], [1, 0], [1, 0]])
    assert np.array_equal(grid.sum(axis=1), [2, 1, 1])
    assert np.array_equal(grid.sum(axis=0), [3, 1])
    assert grid.sum() == 4
    assert np.array_equal(np.flatnonzero(grid.sum(axis=1)), [0, 1, 2])


def test_stats_rows_sum_to_context_counts():
    truth = make_zipf_truth(6, 1.2, seed=0)
    pairs = generate_synthetic_corpus(truth, 2000, seed=0)
    grid = pair_count_matrix(pairs, 6)
    assert np.array_equal(grid.sum(axis=1), np.bincount(pairs[:, 0], minlength=7))
    assert grid.sum(axis=0).sum() == grid.sum() == 2000


@pytest.mark.parametrize("pair", [[-1, 0], [0, -1], [0, 2], [3, 0]])
def test_pair_count_matrix_refuses_ids_outside_the_grid(pair):
    # With |V| = 2 the grid is 3 x 2: word 2 would land in (context + 1, 0)
    # and context 3 past the last row, so both are refused, as are negatives.
    pairs = np.array([[2, 0], pair, [0, 1]])
    with pytest.raises(ValueError, match="out of range"):
        pair_count_matrix(pairs, 2)


def test_pair_count_matrix_takes_the_bos_context():
    # Context n_words is <s>: the last row, never a word.
    assert np.array_equal(pair_count_matrix(np.array([[2, 0], [2, 1], [1, 1]]), 2),
                          [[0, 0], [0, 1], [1, 1]])


def test_pair_count_matrix_counts_a_stack_one_grid_per_array():
    # A (2, 3, n, 2) stack of pair arrays gives each array's own grid, and
    # one pair outside the grid in any array is refused.
    pairs = derive_rng(5, STREAM_DATA).integers(0, 4, (2, 3, 50, 2))
    pairs[..., 1] %= 3
    grids = pair_count_matrix(pairs, 3)
    assert grids.shape == (2, 3, 4, 3) and grids.dtype == np.int64
    for ix in np.ndindex(2, 3):
        assert np.array_equal(grids[ix], pair_count_matrix(pairs[ix], 3))
    pairs[1, 2, 7] = [0, 3]
    with pytest.raises(ValueError, match="out of range"):
        pair_count_matrix(pairs, 3)


@pytest.mark.parametrize("pairs", [np.zeros((0, 2)), np.zeros(4), np.zeros((2, 3)), np.zeros((3, 0, 2))])
def test_pair_count_matrix_refuses_bad_shapes(pairs):
    with pytest.raises(ValueError, match="nonempty"):
        pair_count_matrix(pairs, 2)


def test_zipf_truth_rows_are_permuted_zipf_weights():
    n, s = 8, 1.4
    truth = make_zipf_truth(n, s, seed=5)
    truth.validate()
    weights = (1.0 / np.arange(1, n + 1) ** s)
    weights /= weights.sum()
    for c in range(n):
        assert np.allclose(np.sort(truth.cond[c])[::-1], weights, atol=1e-12, rtol=0)
    # rows should not all share one permutation
    assert not all(np.array_equal(truth.cond[0], truth.cond[c]) for c in range(n))


def test_zipf_truth_marginal_is_stationary():
    truth = make_zipf_truth(10, 1.2, seed=3)
    # stationary: marginal @ cond == marginal
    assert np.allclose(truth.context_marginal @ truth.cond, truth.context_marginal, atol=1e-10)
    direct = stationary_distribution(truth.cond)
    assert np.allclose(direct, truth.context_marginal, atol=1e-10)


def test_synthetic_corpus_matches_truth_statistically():
    truth = make_zipf_truth(6, 1.2, seed=1)
    pairs = generate_synthetic_corpus(truth, 50000, seed=1)
    grid = pair_count_matrix(pairs, 6)
    # context frequencies within 4 standard errors of the marginal
    n = grid.sum()
    freq = grid.sum(axis=1)[:6] / n
    se = np.sqrt(truth.context_marginal * (1 - truth.context_marginal) / n)
    assert np.all(np.abs(freq - truth.context_marginal) <= 4 * se + 1e-12)


def test_synthetic_corpus_kl_shrinks_with_sample_size():
    truth = make_zipf_truth(6, 1.2, seed=2)

    def mean_kl(n_tokens):
        grid = pair_count_matrix(generate_synthetic_corpus(truth, n_tokens, seed=2), 6)
        kls = []
        for c in range(6):
            emp = grid[c] / grid[c].sum()
            mask = truth.cond[c] > 0
            kls.append(np.sum(truth.cond[c][mask] * np.log(truth.cond[c][mask] / emp[mask])))
        return np.mean(kls)

    assert mean_kl(80000) < mean_kl(2000)


def test_synthetic_stream_unigram_tracks_marginal():
    truth = make_zipf_truth(8, 1.5, seed=4)
    ids = generate_synthetic_stream(truth, 60000, seed=4)
    assert ids.shape == (60000,)
    freq = np.bincount(ids, minlength=8) / 60000
    # chain was built so its stationary law is the truth marginal
    assert np.max(np.abs(freq - truth.context_marginal)) < 0.01


@pytest.mark.parametrize("n_words", [2, 16, 200])
def test_synthetic_stream_matches_per_token_searchsorted(n_words):
    # Reference: one searchsorted call per token over the same draws.
    for seed in range(4):
        truth = make_zipf_truth(n_words, 1.2, seed=seed)
        rng = derive_rng(seed, STREAM_DATA)
        cdf = np.cumsum(truth.cond, axis=1)
        cdf[:, -1] = 1.0
        want = np.empty(3000, dtype=np.int64)
        want[0] = np.searchsorted(np.cumsum(truth.context_marginal), rng.random(), side="right")
        u = rng.random(2999)
        for i in range(1, 3000):
            want[i] = np.searchsorted(cdf[want[i - 1]], u[i - 1], side="right")
        got = generate_synthetic_stream(truth, 3000, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def _dense_sample_rows(table, rows, rng):
    """Reference for ``corpus._sample_rows``: gather each draw's whole CDF row,
    (n, |V|), and count the entries below its uniform."""
    cdf = np.cumsum(table, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(rows.shape[0])
    return (u[:, None] > cdf[rows]).sum(axis=1).astype(np.int64)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    n_rows=st.one_of(st.just(1), st.integers(2, 40)),
    n_cols=st.integers(1, 300),
    n_draws=st.integers(0, 3000),
    zero_share=st.sampled_from([0.0, 0.5, 0.9]),
    tilt=st.sampled_from([0.0, 1e-12, -1e-12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_rows_equals_the_dense_gather_bitwise(n_rows, n_cols, n_draws, zero_share, tilt,
                                                     seed):
    # Tables with zero-probability cells, the last cell included, whose rows
    # sum to 1 up to the 1e-12 GroundTruthTable.validate allows, so that a
    # cumsum can pass 1.0 before the forced final entry.
    data = np.random.default_rng(seed)
    table = data.random((n_rows, n_cols)) * (data.random((n_rows, n_cols)) >= zero_share)
    table[np.arange(n_rows), data.integers(0, n_cols, n_rows)] += 0.5
    table *= (1.0 + tilt) / table.sum(axis=1, keepdims=True)
    rows = data.integers(0, n_rows, n_draws)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = corpus._sample_rows(table, rows, got_rng)
    want = _dense_sample_rows(table, rows, want_rng)
    assert got.dtype == np.int64 and got.shape == (n_draws,)
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # both drew n_draws uniforms


def test_synthetic_corpus_memory_is_linear_in_its_pairs():
    # The dense gather held one CDF row per draw: 47.2 MB here.
    truth = make_zipf_truth(256, 1.2, 3)
    tracemalloc.start()
    try:
        generate_synthetic_corpus(truth, 20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_synthetic_stream_and_writer_memory_does_not_grow_as_python_objects(tmp_path):
    # Holding every uniform as a Python float and joining every token into
    # one string peaked at 40.5 MB here; the int64 ids alone take 8 MB.
    truth = make_zipf_truth(16, 1.2, 0)
    words = tuple(f"w{i}" for i in range(16))
    tracemalloc.start()
    try:
        ids = generate_synthetic_stream(truth, 10**6, 0)
        write_corpus_tokens(tmp_path / "c.txt", (words[i] for i in ids))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("chunk", [1, 7, 2**16])
def test_written_synthetic_stream_bytes_are_pinned(chunk, tmp_path, monkeypatch):
    # 2 * 2**16 + 3 tokens cross two chunk boundaries at the default chunk.
    # The digest is that of the file the unchunked generator and writer
    # wrote for this seed; any chunk size gives the same bytes.
    monkeypatch.setattr(corpus, "STREAM_CHUNK", chunk)
    truth = make_zipf_truth(5, 1.2, 4)
    path = tmp_path / "c.txt"
    write_corpus_tokens(path, (f"w{i}" for i in generate_synthetic_stream(truth, 20, 4)))
    assert path.read_bytes() == b"w3 w1 w2 w2 w2 w2 w4 w1 w2 w4 w4 w1 w4 w4 w4 w1 w3 w1 w3 w1\n"
    write_corpus_tokens(path, (f"w{i}" for i in generate_synthetic_stream(truth, 2 * 2**16 + 3, 4)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "51dcc75540ef7fe107a1fedd76b1f8f15c244d85ef785b532a3fc0c77a4a40f9"


def test_generation_is_seed_deterministic():
    truth = make_zipf_truth(6, 1.2, seed=9)
    a = generate_synthetic_corpus(truth, 500, seed=7)
    b = generate_synthetic_corpus(truth, 500, seed=7)
    c = generate_synthetic_corpus(truth, 500, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_corpus_and_vocab_round_trip(tmp_path):
    toks = ["the", "cat", "sat", "the", "cat"]
    p = tmp_path / "c.txt"
    write_corpus_tokens(p, toks)
    assert read_corpus_tokens(p) == toks


def test_truth_round_trip_is_bit_faithful(tmp_path):
    truth = make_zipf_truth(7, 1.3, seed=11)
    v = build_vocab(f"w{i}" for i in range(7))
    p = tmp_path / "t.truth"
    write_truth(p, truth, v)
    back, back_vocab = read_truth(p)
    assert np.array_equal(back.cond, truth.cond)
    assert np.array_equal(back.context_marginal, truth.context_marginal)
    assert back_vocab.words == v.words


def test_format_row_text_is_that_of_numpy_scalars_and_reads_back_bitwise():
    # Rows are formatted from Python floats: the text is the one numpy
    # scalars give, for signed zero, subnormals, the top of the range and
    # 17-digit forms that end in an exponent, and it parses to the same bits.
    values = np.array([-0.0, 0.0, 5e-324, 2.5e-310, 1e308, np.finfo(np.float64).max,
                       1e-5, -1.2345678901234567e20, 1e16, 0.1])
    text = format_row(values)
    assert text == " ".join(f"{v:.17g}" for v in values)  # numpy scalars
    assert text.split() == [
        "-0", "0", "4.9406564584124654e-324", "2.5000000000000171e-310", "1e+308",
        "1.7976931348623157e+308", "1.0000000000000001e-05", "-1.2345678901234567e+20",
        "10000000000000000", "0.10000000000000001",
    ]
    assert parse_rows([text], values.size, "row").tobytes() == values.tobytes()


def test_truth_read_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.truth"
    p.write_text("nope v9 4\n")
    with pytest.raises(ValueError, match="header"):
        read_truth(p)
