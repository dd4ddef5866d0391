import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts, score, sigmoid
from ncelm.checks import finite_diff_gradient
from ncelm.model import Z_FIXED_ONE, init_params
from ncelm.nce import NceConfig, mc_grad, mc_loss
from ncelm.negsampling import ns_grad, ns_loss
from ncelm.noise import uniform
from ncelm.seeding import STREAM_DATA, derive_rng


def random_setup(n_words=4, seed=0):
    params = init_params(n_words, 3, seed=seed, z_mode=Z_FIXED_ONE)
    rng = derive_rng(seed, STREAM_DATA)
    params.target_emb[:] = rng.normal(0, 1, params.target_emb.shape)
    params.context_emb[:] = rng.normal(0, 1, params.context_emb.shape)
    params.bias[:] = rng.normal(0, 0.5, n_words)
    return params, rng


def test_loss_hand_computed_single_example():
    params, _ = random_setup()
    batch = ProxyBatch(
        contexts=np.array([1]), true_words=np.array([2]), noise_words=np.array([[0, 3]])
    )
    pt = sigmoid(score(params, 1, 2))
    pn0 = sigmoid(score(params, 1, 0))
    pn3 = sigmoid(score(params, 1, 3))
    expected = math.log(pt) + math.log(1 - pn0) + math.log(1 - pn3)
    assert ns_loss(params, cell_counts(batch, 5, 4)) == pytest.approx(expected, rel=1e-12)


def test_grad_matches_finite_differences():
    params, rng = random_setup(seed=3)
    batch = ProxyBatch(
        contexts=rng.integers(0, 5, 25),
        true_words=rng.integers(0, 4, 25),
        noise_words=rng.integers(0, 4, (25, 2)),
    )
    counts = cell_counts(batch, 5, 4)
    analytic = ns_grad(params, counts).vector
    fd = finite_diff_gradient(lambda p: ns_loss(p, counts), params).vector
    assert np.max(np.abs(analytic - fd)) < 1e-7
    assert np.all(ns_grad(params, counts).log_zc == 0)


def test_matches_nce_exactly_when_k_equals_vocab_uniform():
    # k * q(w) = |V| * (1/|V|) = 1 makes the two classifier logits coincide.
    V = 6
    params, rng = random_setup(n_words=V, seed=4)
    batch = ProxyBatch(
        contexts=rng.integers(0, V + 1, 40),
        true_words=rng.integers(0, V, 40),
        noise_words=rng.integers(0, V, (40, V)),
    )
    counts = cell_counts(batch, V + 1, V)
    cfg = NceConfig(k=V, q=uniform(V))
    assert ns_loss(params, counts) == pytest.approx(mc_loss(params, counts, cfg), abs=1e-12)
    dg = ns_grad(params, counts).vector - mc_grad(params, counts, cfg).vector
    assert np.max(np.abs(dg)) < 1e-12


def test_differs_from_nce_when_q_not_uniform_or_k_wrong():
    V = 6
    params, rng = random_setup(n_words=V, seed=5)
    batch = ProxyBatch(
        contexts=rng.integers(0, V + 1, 40),
        true_words=rng.integers(0, V, 40),
        noise_words=rng.integers(0, V, (40, V)),
    )
    skew = np.arange(1.0, V + 1.0)
    cfg_skew = NceConfig(k=V, q=skew / skew.sum())
    counts = cell_counts(batch, V + 1, V)
    assert abs(ns_loss(params, counts) - mc_loss(params, counts, cfg_skew)) > 1e-3
    batch5 = ProxyBatch(
        contexts=batch.contexts, true_words=batch.true_words, noise_words=batch.noise_words[:, : V - 1]
    )
    counts5 = cell_counts(batch5, V + 1, V)
    cfg_short = NceConfig(k=V - 1, q=uniform(V))
    assert abs(ns_loss(params, counts5) - mc_loss(params, counts5, cfg_short)) > 1e-3


def test_loss_stays_finite_at_extreme_scores():
    params, rng = random_setup(seed=6)
    params.target_emb *= 100.0
    batch = ProxyBatch(
        contexts=rng.integers(0, 5, 10),
        true_words=rng.integers(0, 4, 10),
        noise_words=rng.integers(0, 4, (10, 2)),
    )
    counts = cell_counts(batch, 5, 4)
    assert np.isfinite(ns_loss(params, counts))
    assert np.all(np.isfinite(ns_grad(params, counts).vector))
