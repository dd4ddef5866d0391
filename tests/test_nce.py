import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts, score, sigmoid
from ncelm.checks import finite_diff_gradient
from ncelm.corpus import build_vocab, extract_stats, stats_from_pairs
from ncelm.model import Z_FIXED_ONE, Z_LEARNED_ZC, init_params
from ncelm.nce import (
    NceConfig,
    classifier_logits,
    exact_grad_analysis,
    exact_loss,
    mc_grad,
    mc_loss,
    mixture_joint,
    posterior_true_empirical,
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


def test_mixture_joint_hand_arithmetic():
    v = build_vocab(["a", "b"])
    stats = extract_stats(["a", "a", "b", "a"], v)
    q = uniform(2)
    k = 3
    # context a: p(a|a) = 0.5 -> true-class joint 1/(1+3) * 0.5
    assert mixture_joint(stats, 1, 0, 0, k, q) == pytest.approx(0.125)
    # noise class: 3/(1+3) * 0.5
    assert mixture_joint(stats, 0, 0, 0, k, q) == pytest.approx(0.375)
    # joint sums to 1 over (d, w) for a fixed context
    total = sum(mixture_joint(stats, d, w, 0, k, q) for d in (0, 1) for w in (0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_posterior_true_empirical_hand_value():
    v = build_vocab(["a", "b"])
    stats = extract_stats(["a", "a", "b", "a"], v)
    q = uniform(2)
    # ptilde = 0.5, k*q = 1.5 -> 0.5 / (0.5 + 1.5)
    assert posterior_true_empirical(stats, 0, 0, 3, q) == pytest.approx(0.25)


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
    assert exact_loss(params, pairs, cfg) == pytest.approx(expectation, rel=1e-12)


def test_exact_grad_analysis_matches_exact_loss_derivative():
    params = small_setup()
    rng = derive_rng(4, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 30), rng.integers(0, 4, 30)], axis=1)
    stats = stats_from_pairs(pairs, 4)
    cfg = NceConfig(k=5, z_mode=Z_LEARNED_ZC, q=uniform(4))
    analytic = exact_grad_analysis(params, stats, cfg).to_vector()
    fd = finite_diff_gradient(lambda p: exact_loss(p, pairs, cfg), params).to_vector()
    assert np.max(np.abs(analytic - fd)) < 1e-7


def test_exact_loss_handles_extreme_scores_finitely():
    params = small_setup()
    params.target_emb *= 60.0  # pushes some logits past +-300
    rng = derive_rng(5, STREAM_DATA)
    pairs = np.stack([rng.integers(0, 5, 10), rng.integers(0, 4, 10)], axis=1)
    cfg = NceConfig(k=2, z_mode=Z_FIXED_ONE, q=uniform(4))
    assert np.isfinite(exact_loss(params, pairs, cfg))
    g = exact_grad_analysis(params, stats_from_pairs(pairs, 4), cfg)
    assert np.all(np.isfinite(g.to_vector()))
