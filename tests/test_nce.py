import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts, score, sigmoid
from ncelm.checks import finite_diff_gradient
from ncelm.corpus import pair_count_matrix, stats_from_pairs
from ncelm.model import Z_FIXED_ONE, Z_LEARNED_ZC, init_params
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


def test_config_rejects_exact_z_mode():
    q = uniform(4)
    NceConfig(k=2, z_mode=Z_LEARNED_ZC, q=q)
    NceConfig(k=2, z_mode=Z_FIXED_ONE, q=q)
    with pytest.raises(ValueError):
        NceConfig(k=2, z_mode="exact", q=q)
    with pytest.raises(ValueError):
        NceConfig(k=0, z_mode=Z_FIXED_ONE, q=q)


def test_model_posteriors_match_sigmoid_formula():
    params = small_setup()
    q = unigram(stats_from_pairs(np.array([[4, 0], [0, 1], [1, 2], [2, 3], [3, 0]]), 4))
    cfg = NceConfig(k=2, z_mode=Z_LEARNED_ZC, q=q)
    delta = classifier_logits(params, np.arange(5), np.arange(4)[None, :], cfg)
    for c in range(5):
        for w in range(4):
            u_adj = math.exp(score(params, c, w)) / math.exp(params.log_zc[c])
            expected = u_adj / (u_adj + 2 * q.probs[w])
            assert sigmoid(delta[c, w]) == pytest.approx(expected, rel=1e-12)
            assert sigmoid(-delta[c, w]) == pytest.approx(1 - expected, rel=1e-12)


def test_classifier_logits_z_mode_difference():
    params = small_setup()
    q = uniform(4)
    contexts = np.array([0, 2, 4])
    words = np.array([1, 3, 0])
    cfg_l = NceConfig(k=2, z_mode=Z_LEARNED_ZC, q=q)
    cfg_f = NceConfig(k=2, z_mode=Z_FIXED_ONE, q=q)
    diff = classifier_logits(params, contexts, words, cfg_f) - classifier_logits(
        params, contexts, words, cfg_l
    )
    assert np.allclose(diff, params.log_zc[contexts])


def test_mc_loss_hand_computed_single_example():
    params = small_setup(z_mode=Z_FIXED_ONE)
    q = uniform(4)
    cfg = NceConfig(k=1, z_mode=Z_FIXED_ONE, q=q)
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
    cfg = NceConfig(k=3, z_mode=Z_LEARNED_ZC, q=q)
    rng = derive_rng(2, STREAM_DATA)
    batch = ProxyBatch(
        contexts=rng.integers(0, 5, 25),
        true_words=rng.integers(0, 4, 25),
        noise_words=rng.integers(0, 4, (25, 3)),
    )
    counts = cell_counts(batch, 5, 4)
    analytic = mc_grad(params, counts, cfg).to_vector()
    fd = finite_diff_gradient(lambda p: mc_loss(p, counts, cfg), params).to_vector()
    assert np.max(np.abs(analytic - fd)) < 1e-7


def test_exact_loss_is_expectation_of_mc_loss():
    # With k=1 the noise expectation can be enumerated: summing mc_loss over
    # every constant noise assignment, weighted by q, must equal exact_loss.
    params = small_setup()
    rng = derive_rng(3, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 12), rng.integers(0, 4, 12)], axis=1)
    q = unigram(stats_from_pairs(np.array([[4, 0], [0, 1], [1, 2], [2, 3], [3, 0]]), 4))
    cfg = NceConfig(k=1, z_mode=Z_LEARNED_ZC, q=q)
    expectation = 0.0
    for w in range(4):
        batch = ProxyBatch(
            contexts=pairs[:, 0],
            true_words=pairs[:, 1],
            noise_words=np.full((12, 1), w),
        )
        # weights sum to 1, so the shared true-sample part is counted once
        expectation += q.probs[w] * mc_loss(params, cell_counts(batch, 5, 4), cfg)
    assert exact_loss(params, pair_count_matrix(pairs, 4), cfg) == pytest.approx(expectation, rel=1e-12)


def test_exact_grad_analysis_matches_exact_loss_derivative():
    params = small_setup()
    rng = derive_rng(4, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 30), rng.integers(0, 4, 30)], axis=1)
    counts = pair_count_matrix(pairs, 4)
    cfg = NceConfig(k=5, z_mode=Z_LEARNED_ZC, q=uniform(4))
    analytic = exact_grad_analysis(params, counts, cfg).to_vector()
    fd = finite_diff_gradient(lambda p: exact_loss(p, counts, cfg), params).to_vector()
    assert np.max(np.abs(analytic - fd)) < 1e-7


def test_exact_loss_handles_extreme_scores_finitely():
    params = small_setup()
    params.target_emb *= 60.0  # pushes some logits past +-300
    rng = derive_rng(5, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 10), rng.integers(0, 4, 10)], axis=1)
    cfg = NceConfig(k=2, z_mode=Z_FIXED_ONE, q=uniform(4))
    counts = pair_count_matrix(pairs, 4)
    assert np.isfinite(exact_loss(params, counts, cfg))
    g = exact_grad_analysis(params, counts, cfg)
    assert np.all(np.isfinite(g.to_vector()))
