import dataclasses
import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts, score, sigmoid
from ncelm.checks import finite_diff_gradient
from ncelm.corpus import pair_count_matrix
from ncelm.model import Z_FIXED_ONE, Z_LEARNED_ZC, ModelParams, init_params
from ncelm.nce import (
    NceConfig,
    classifier_logits,
    exact_grad_analysis,
    exact_loss,
    mc_grad,
    mc_loss,
)
from ncelm.noise import uniform, unigram
from ncelm.seeding import STREAM_DATA, derive_rng


def small_setup(z_mode=Z_LEARNED_ZC, seed=0):
    params = init_params(4, 2, seed=seed, z_mode=z_mode)
    rng = derive_rng(seed, STREAM_DATA)
    params.target_emb[:] = rng.normal(0, 1, (4, 2))
    params.context_emb[:] = rng.normal(0, 1, (5, 2))
    params.bias[:] = rng.normal(0, 0.5, 4)
    if z_mode == Z_LEARNED_ZC:
        params.log_zc[:] = rng.normal(0, 0.5, 5)
    return params


def test_config_holds_k_and_q_only():
    # The normalizer mode is the model's, not the estimator's.
    q = uniform(4)
    assert [f.name for f in dataclasses.fields(NceConfig)] == ["k", "q"]
    NceConfig(k=2, q=q)
    with pytest.raises(ValueError):
        NceConfig(k=0, q=q)


@pytest.mark.parametrize("bad", [0.0, -0.25, math.nan])
def test_config_refuses_a_q_without_full_support(bad):
    # A word that noise never draws pins its true-sample posterior at 1, and
    # log(k q(w)) turns -inf or NaN: the config refuses such a q, for one
    # model and for one bad row of a stack, whoever built the array.
    q = uniform(4)
    q[2] = bad
    with pytest.raises(ValueError, match="noise distribution: probability not > 0"):
        NceConfig(k=2, q=q)
    good, row = NceConfig(k=2, q=uniform(4)), NceConfig(k=3, q=uniform(4))
    row.q[2] = bad  # q is the caller's array: a later write is caught when stacked
    with pytest.raises(ValueError, match="noise distribution: probability not > 0"):
        NceConfig.stack([good, row, good])


def test_model_posteriors_match_sigmoid_formula():
    params = small_setup()
    q = unigram(pair_count_matrix(np.array([[4, 0], [0, 1], [1, 2], [2, 3], [3, 0]]), 4))
    cfg = NceConfig(k=2, q=q)
    delta = classifier_logits(params, np.arange(5), np.arange(4)[None, :], cfg)
    for c in range(5):
        for w in range(4):
            u_adj = math.exp(score(params, c, w)) / math.exp(params.log_zc[c])
            expected = u_adj / (u_adj + 2 * q[w])
            assert sigmoid(delta[c, w]) == pytest.approx(expected, rel=1e-12)
            assert sigmoid(-delta[c, w]) == pytest.approx(1 - expected, rel=1e-12)


def test_classifier_logits_z_mode_difference():
    learned = small_setup()
    fixed = ModelParams(learned.target_emb, learned.context_emb, learned.bias, learned.log_zc,
                        Z_FIXED_ONE)
    cfg = NceConfig(k=2, q=uniform(4))
    contexts = np.array([0, 2, 4])
    words = np.array([1, 3, 0])
    diff = classifier_logits(fixed, contexts, words, cfg) - classifier_logits(
        learned, contexts, words, cfg
    )
    assert np.allclose(diff, learned.log_zc[contexts])


def test_mc_loss_hand_computed_single_example():
    params = small_setup(z_mode=Z_FIXED_ONE)
    q = uniform(4)
    cfg = NceConfig(k=1, q=q)
    batch = ProxyBatch(
        contexts=np.array([2]), true_words=np.array([1]), noise_words=np.array([[3]])
    )
    d_true = score(params, 2, 1) - math.log(1 * 0.25)
    d_noise = score(params, 2, 3) - math.log(1 * 0.25)
    expected = math.log(sigmoid(d_true)) + math.log(sigmoid(-d_noise))
    assert mc_loss(params, cell_counts(batch, 5, 4), cfg) == pytest.approx(expected, rel=1e-12)


def test_mc_grad_matches_finite_differences():
    params = small_setup()
    q = uniform(4)
    cfg = NceConfig(k=3, q=q)
    rng = derive_rng(2, STREAM_DATA)
    batch = ProxyBatch(
        contexts=rng.integers(0, 5, 25),
        true_words=rng.integers(0, 4, 25),
        noise_words=rng.integers(0, 4, (25, 3)),
    )
    counts = cell_counts(batch, 5, 4)
    analytic = mc_grad(params, counts, cfg).vector
    fd = finite_diff_gradient(lambda p: mc_loss(p, counts, cfg), params).vector
    assert np.max(np.abs(analytic - fd)) < 1e-7


def _constant_noise_batches(seed, n_pairs):
    """A random batch at k=1, whose noise expectation can be enumerated.

    Returns q, a (q(w), cell counts) pair for each constant noise assignment
    w of the batch, and the batch's true-count grid.
    """
    rng = derive_rng(seed, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, n_pairs), rng.integers(0, 4, n_pairs)], axis=1)
    q = unigram(pair_count_matrix(np.array([[4, 0], [0, 1], [1, 2], [2, 3], [3, 0]]), 4))
    batches = []
    for w in range(4):
        batch = ProxyBatch(
            contexts=pairs[:, 0],
            true_words=pairs[:, 1],
            noise_words=np.full((n_pairs, 1), w),
        )
        batches.append((q[w], cell_counts(batch, 5, 4)))
    return q, batches, pair_count_matrix(pairs, 4)


def test_exact_loss_is_expectation_of_mc_loss():
    # Summing mc_loss over every constant noise assignment, weighted by q,
    # must equal exact_loss.
    params = small_setup()
    q, batches, counts = _constant_noise_batches(3, 12)
    cfg = NceConfig(k=1, q=q)
    # weights sum to 1, so the shared true-sample part is counted once
    expectation = sum(weight * mc_loss(params, batch, cfg) for weight, batch in batches)
    assert exact_loss(params, counts, cfg) == pytest.approx(expectation, rel=1e-12)


@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
def test_exact_grad_is_expectation_of_mc_grad(z_mode):
    params = small_setup(z_mode=z_mode)
    q, batches, counts = _constant_noise_batches(6, 20)
    cfg = NceConfig(k=1, q=q)
    expectation = sum(weight * mc_grad(params, batch, cfg).vector for weight, batch in batches)
    exact = exact_grad_analysis(params, counts, cfg).vector
    assert np.max(np.abs(exact - expectation)) <= 1e-12 * np.max(np.abs(exact))


def test_exact_grad_analysis_matches_exact_loss_derivative():
    params = small_setup()
    rng = derive_rng(4, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 30), rng.integers(0, 4, 30)], axis=1)
    counts = pair_count_matrix(pairs, 4)
    cfg = NceConfig(k=5, q=uniform(4))
    analytic = exact_grad_analysis(params, counts, cfg).vector
    fd = finite_diff_gradient(lambda p: exact_loss(p, counts, cfg), params).vector
    assert np.max(np.abs(analytic - fd)) < 1e-7


def test_exact_loss_handles_extreme_scores_finitely():
    params = small_setup(z_mode=Z_FIXED_ONE)
    params.target_emb *= 60.0  # pushes some logits past +-300
    rng = derive_rng(5, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 10), rng.integers(0, 4, 10)], axis=1)
    cfg = NceConfig(k=2, q=uniform(4))
    counts = pair_count_matrix(pairs, 4)
    assert np.isfinite(exact_loss(params, counts, cfg))
    g = exact_grad_analysis(params, counts, cfg)
    assert np.all(np.isfinite(g.vector))
