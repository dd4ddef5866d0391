import math

import numpy as np
import pytest

from batch_reference import score
from ncelm import model
from ncelm.checks import finite_diff_gradient
from ncelm.corpus import build_vocab, pair_count_matrix
from ncelm.model import (
    PARAM_BLOCKS,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    CellCounts,
    ModelParams,
    apply_gradient,
    grad_log_likelihood,
    init_params,
    load_model,
    log_likelihood,
    log_partitions,
    log_softmax_matrix,
    normalization_stats,
    save_model,
    score_matrix,
    zero_gradient,
)


def tiny_params():
    """|V|=3, d=2 model with hand-enterable numbers."""
    p = init_params(3, 2, seed=0, z_mode=Z_EXACT)
    p.target_emb[:] = [[0.1, 0.2], [0.0, -0.3], [0.5, 0.1]]
    p.context_emb[:] = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.2]]
    p.bias[:] = [0.0, 0.1, -0.2]
    return p


def test_score_and_unnorm_hand_values():
    p = tiny_params()
    s = score_matrix(p)
    # s(w=2, c=0) = 0.5*1.0 + 0.1*0.0 + bias -0.2
    assert s[0, 2] == pytest.approx(0.3)
    assert np.exp(s[0, 2]) == pytest.approx(math.exp(0.3))
    # context 3 is the sentence-start row
    assert s[3, 0] == pytest.approx(0.1 * -1.0 + 0.2 * 0.2 + 0.0)


def log_z(p, c):
    """log Z(c) summed directly from the scalar scores."""
    return math.log(sum(math.exp(score(p, c, w)) for w in range(p.n_words)))


def test_scores_matrix_matches_scalar_path():
    p = tiny_params()
    mat = score_matrix(p)
    assert mat.shape == (4, 3)
    for c in range(4):
        for w in range(3):
            assert mat[c, w] == pytest.approx(score(p, c, w))


def test_partition_is_plain_exp_sum():
    p = tiny_params()
    lz = log_partitions(p)
    assert lz.shape == (4,)
    for c in range(4):
        direct = sum(math.exp(score(p, c, w)) for w in range(3))
        assert math.exp(lz[c]) == pytest.approx(direct, rel=1e-12)
        assert lz[c] == pytest.approx(math.log(direct), rel=1e-12)


def test_log_partition_survives_huge_scores():
    p = tiny_params()
    p.bias[:] = [800.0, 0.0, -800.0]
    lz = log_partitions(p)[0]
    assert np.isfinite(lz)
    assert lz == pytest.approx(800.0 + score(p, 0, 0) - p.bias[0], abs=1e-6)


def test_softmax_rows_normalize():
    p = tiny_params()
    probs = np.exp(log_softmax_matrix(p))
    assert probs.shape == (4, 3)
    for c in range(4):
        row = probs[c]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(row > 0)
        direct = sum(math.exp(score(p, c, v)) for v in range(3))
        for w in range(3):
            assert row[w] == pytest.approx(math.exp(score(p, c, w)) / direct)


def test_log_likelihood_hand_value():
    p = tiny_params()
    counts = pair_count_matrix(np.array([[0, 1], [3, 2]]), 3)
    expected = (score(p, 0, 1) - log_z(p, 0)) + (score(p, 3, 2) - log_z(p, 3))
    assert log_likelihood(p, counts) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        log_likelihood(p, np.zeros((4, 3), dtype=np.int64))


def test_log_likelihood_takes_one_grid_for_a_stack():
    # One count grid serves every model of a stack, and the same grid once
    # per model gives the same bits.
    p = tiny_params()
    stack = p.with_vector(np.stack([p.vector, 2.0 * p.vector]))
    counts = pair_count_matrix(np.array([[0, 1], [3, 2]]), 3)
    solo = [log_likelihood(stack.with_vector(v), counts) for v in stack.vector]
    assert log_likelihood(stack, counts).tobytes() == np.array(solo).tobytes()
    assert log_likelihood(stack, np.stack([counts, counts])).tobytes() == np.array(solo).tobytes()


@pytest.mark.parametrize("n_words", [3, 100])
def test_log_likelihood_on_a_grid_per_model_equals_single_model_calls_bitwise(n_words):
    # R models with R count grids in one call give the R single-model values
    # to the bit, for the int64 grids of pair_count_matrix and their float64
    # copies alike; at |V| = 100 a grid holds 10,100 cells.
    rng = np.random.default_rng(n_words)
    p = init_params(n_words, 4, seed=n_words)
    stack = p.with_vector(p.vector + rng.normal(0.0, 0.5, (4, p.vector.size)))
    pairs = [np.stack([rng.integers(0, n_words + 1, 200), rng.integers(0, n_words, 200)], axis=1)
             for _ in range(4)]
    grids = np.stack([pair_count_matrix(pp, n_words) for pp in pairs])
    want = np.array([log_likelihood(stack.with_vector(v.copy()), g) for v, g in zip(stack.vector, grids)])
    for counts in (grids, grids.astype(np.float64)):
        assert log_likelihood(stack, counts).tobytes() == want.tobytes()


def test_log_likelihood_ignores_scores_that_overflow_at_a_context_without_pairs():
    # Model 1's scores overflow at context 2, where its grid holds no pair:
    # its log p row there is NaN, and the row still adds 0, in the stacked
    # call as in model 1's own.
    p = tiny_params()
    stack = p.with_vector(np.stack([p.vector, 2.0 * p.vector, -p.vector]))
    stack.target_emb[1] = [[1.0, 1.0], [-1.0, -1.0], [1.0, 0.5]]
    stack.context_emb[1, 2] = 1.5e308
    grids = np.stack([pair_count_matrix(np.array(pairs), 3)
                      for pairs in ([[0, 1], [2, 2]], [[0, 1], [3, 2], [1, 0]], [[2, 0]])])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(log_softmax_matrix(stack)[1, 2]).all()
        got = log_likelihood(stack, grids)
        solo = [log_likelihood(stack.with_vector(v.copy()), g) for v, g in zip(stack.vector, grids)]
    assert np.isfinite(got).all()
    assert got.tobytes() == np.array(solo).tobytes()


def test_grad_log_likelihood_matches_finite_differences():
    p = init_params(5, 3, seed=2, z_mode=Z_EXACT)
    rng = np.random.default_rng(0)
    pairs = np.stack([rng.integers(0, 6, 30), rng.integers(0, 5, 30)], axis=1)
    counts = pair_count_matrix(pairs, 5)
    analytic = grad_log_likelihood(p, CellCounts(counts, None))
    fd = finite_diff_gradient(lambda q: log_likelihood(q, counts), p)
    for name in ("target_emb", "context_emb", "bias"):
        assert np.allclose(getattr(analytic, name), getattr(fd, name), atol=1e-7)
    assert np.all(analytic.log_zc == 0)


def test_saturated_model_has_zero_gradient():
    # One active context; bias holding the empirical log-probabilities is a
    # stationary point of the likelihood.
    counts = np.array([6, 3, 1])
    pairs = np.repeat([[3, 0], [3, 1], [3, 2]], counts, axis=0)
    p = init_params(3, 2, seed=0, z_mode=Z_EXACT)
    p.target_emb[:] = 0.0
    p.context_emb[:] = 0.0
    p.bias[:] = np.log(counts / counts.sum())
    g = grad_log_likelihood(p, CellCounts(pair_count_matrix(pairs, 3), None))
    assert np.max(np.abs(g.vector)) < 1e-12


def test_init_params_is_seeded_and_validated():
    a = init_params(4, 3, seed=7)
    b = init_params(4, 3, seed=7)
    c = init_params(4, 3, seed=8)
    assert np.array_equal(a.target_emb, b.target_emb)
    assert not np.array_equal(a.target_emb, c.target_emb)
    assert a.context_emb.shape == (5, 3)
    assert np.all(a.log_zc == 0) and np.all(a.bias == 0)
    with pytest.raises(ValueError):
        init_params(4, 3, seed=0, z_mode="bogus")


def test_apply_gradient_freezes_log_zc_unless_learned():
    for z_mode, moves in ((Z_LEARNED_ZC, True), (Z_FIXED_ONE, False), (Z_EXACT, False)):
        p = init_params(3, 2, seed=1, z_mode=z_mode)
        g = zero_gradient(p)
        g.log_zc[:] = 1.0
        g.bias[:] = 1.0
        apply_gradient(p, g, 0.5)
        assert np.all(p.bias == 0.5)
        assert np.all(p.log_zc == (0.5 if moves else 0.0))


def test_flat_vector_invariants():
    p = init_params(4, 3, seed=2, z_mode=Z_LEARNED_ZC)
    g = zero_gradient(p)
    for obj in (p, g):
        for name in PARAM_BLOCKS:
            assert np.shares_memory(getattr(obj, name), obj.vector)
    # The constructor copies its inputs into one fresh vector.
    emb = p.target_emb.copy()
    q = ModelParams(emb, p.context_emb, p.bias, p.log_zc, Z_LEARNED_ZC)
    emb[0, 0] += 1.0
    assert q.target_emb[0, 0] == p.target_emb[0, 0]
    assert not np.shares_memory(q.vector, p.vector)
    # An in-place write to a block is seen by the losses.
    counts = pair_count_matrix(np.array([[4, 1], [0, 2], [2, 3], [2, 1]]), 4)
    before = log_likelihood(p, counts)
    p.context_emb[2, 1] += 0.5
    moved = log_likelihood(p, counts)
    assert moved != before
    assert moved == log_likelihood(
        ModelParams(p.target_emb, p.context_emb, p.bias, p.log_zc, Z_LEARNED_ZC), counts
    )
    # with_vector() views an (R, P) stack as R models without copying it.
    stack = np.stack([p.vector, 2.0 * p.vector])
    s = p.with_vector(stack)
    assert s.z_mode == p.z_mode and (s.n_words, s.dim, s.n_contexts) == (4, 3, 5)
    for name in PARAM_BLOCKS:
        assert np.shares_memory(getattr(s, name), stack)
        assert np.array_equal(getattr(s, name)[1], 2.0 * getattr(p, name))
    s.bias[0, 1] = 7.0
    assert stack[0, 4 * 3 + 5 * 3 + 1] == 7.0 and p.bias[1] != 7.0
    assert np.array_equal(s.copy().vector, stack) and not np.shares_memory(s.copy().vector, stack)
    # copy() is independent of the original.
    c = p.copy()
    assert c.z_mode == p.z_mode and np.array_equal(c.vector, p.vector)
    c.bias[1] = 7.0
    assert p.bias[1] != 7.0
    # A gradient's vector holds its blocks in PARAM_BLOCKS order.
    g = grad_log_likelihood(p, CellCounts(counts, None))
    want = np.concatenate([g.target_emb.ravel(), g.context_emb.ravel(), g.bias, g.log_zc])
    assert np.array_equal(g.vector, want)


@pytest.mark.parametrize("z_mode", [Z_EXACT, Z_FIXED_ONE])
def test_apply_gradient_leaves_frozen_log_zc_bitwise(z_mode):
    p = init_params(3, 2, seed=1, z_mode=z_mode)
    p.log_zc[:] = [-0.0, 0.25, np.pi, -1.5]
    frozen = p.log_zc.tobytes()
    g = zero_gradient(p)
    g.vector[:] = 1.0
    apply_gradient(p, g, 0.5)
    assert p.log_zc.tobytes() == frozen
    assert np.signbit(p.log_zc[0])
    assert np.all(p.bias == 0.5)


def test_set_log_zc_to_partition_normalizes_adjusted_scores():
    p = init_params(5, 3, seed=3, z_mode=Z_LEARNED_ZC)
    p.target_emb *= 4.0
    p.log_zc[:] = log_partitions(p)
    totals = np.exp(score_matrix(p) - p.log_zc[:, None]).sum(axis=1)
    for c in range(6):
        assert totals[c] == pytest.approx(1.0, abs=1e-12)


def test_normalization_stats_summary():
    p = tiny_params()
    stats = normalization_stats(p, np.arange(4))
    lz = [log_z(p, c) for c in range(4)]
    assert stats["min"] == pytest.approx(min(lz))
    assert stats["max"] == pytest.approx(max(lz))
    assert stats["median"] == pytest.approx(float(np.median(lz)))


def test_model_file_round_trip_is_bit_faithful(tmp_path):
    vocab = build_vocab(["alpha", "beta", "gamma"])
    p = init_params(3, 2, seed=5, z_mode=Z_LEARNED_ZC)
    p.log_zc[:] = np.pi * np.arange(4)
    path = tmp_path / "m.model"
    save_model(path, p, vocab)
    back, back_vocab = load_model(path)
    assert back_vocab.words == vocab.words
    assert back.z_mode == Z_LEARNED_ZC
    for name in ("target_emb", "context_emb", "bias", "log_zc"):
        assert np.array_equal(getattr(back, name), getattr(p, name))


def test_load_model_rejects_corrupt_files(tmp_path):
    vocab = build_vocab(["a", "b"])
    p = init_params(2, 2, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, vocab)
    text = path.read_text()
    bad = tmp_path / "bad.model"
    bad.write_text("nope" + text)
    with pytest.raises(ValueError):
        load_model(bad)
    truncated = tmp_path / "short.model"
    truncated.write_text("\n".join(text.splitlines()[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_model(truncated)
