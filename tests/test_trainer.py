import dataclasses
import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts
from ncelm import noise
from ncelm.corpus import (
    build_vocab,
    generate_synthetic_corpus,
    make_zipf_truth,
    pair_count_matrix,
    stats_from_pairs,
)
from ncelm.model import (
    PARAM_BLOCKS,
    CellCounts,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    apply_gradient,
    grad_log_likelihood,
    init_params,
    load_model,
    log_likelihood,
    log_partitions,
)
from ncelm.nce import NceConfig, mc_grad, mc_loss
from ncelm.negsampling import ns_grad, ns_loss
from ncelm.seeding import STREAM_DATA, STREAM_NOISE, STREAM_SHUFFLE, derive_rng
from ncelm.trainer import (
    COUNT_BLOCK_CELLS,
    METRICS_HEADER,
    MetricsRow,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    kl_truth_model,
    kl_truth_rows,
    sweep_k,
    train,
    write_metrics_csv,
)


def fixture_data(n_tokens=3000, seed=5):
    truth = make_zipf_truth(8, 1.3, seed=seed)
    return truth, generate_synthetic_corpus(truth, n_tokens, seed=seed)


def test_config_validation():
    TrainConfig(objective="nce")
    with pytest.raises(ValueError, match="objective"):
        TrainConfig(objective="adam")
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(objective="nce", learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(objective="nce", lr_decay=1.5)
    with pytest.raises(ValueError):
        TrainConfig(objective="nce", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(objective="nce", k=0)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim"):
            TrainConfig(objective="nce", dim=dim)
    for objective in ("nce", "ns", "mle_exact"):
        with pytest.raises(ValueError, match="z_mode"):
            TrainConfig(objective=objective, z_mode="bogus")
    with pytest.raises(ValueError, match="z_mode"):
        TrainConfig(objective="nce", z_mode=Z_EXACT)


def test_single_example_step_increases_own_objective():
    # One tiny ascent step on one example must increase that example's
    # log-likelihood term; checked across 20 random examples.
    rng = derive_rng(1, STREAM_DATA)
    for trial in range(20):
        params = init_params(5, 3, seed=trial, z_mode=Z_EXACT)
        params.target_emb[:] = rng.normal(0, 1, params.target_emb.shape)
        params.context_emb[:] = rng.normal(0, 1, params.context_emb.shape)
        pair = np.array([[rng.integers(0, 6), rng.integers(0, 5)]])
        counts = pair_count_matrix(pair, 5)
        before = log_likelihood(params, counts)
        apply_gradient(params, grad_log_likelihood(params, counts), 1e-4)
        assert log_likelihood(params, counts) > before


def test_train_is_bit_deterministic():
    truth, pairs = fixture_data()
    cfg = TrainConfig(objective="nce", k=3, z_mode=Z_LEARNED_ZC, epochs=4,
                      eval_every=2, seed=9, batch_size=32, dim=4)
    p1, h1 = train(cfg, pairs, 8, truth=truth)
    p2, h2 = train(cfg, pairs, 8, truth=truth)
    assert np.array_equal(p1.target_emb, p2.target_emb)
    assert np.array_equal(p1.log_zc, p2.log_zc)
    # seconds is wall-clock and excluded from the reproducibility contract
    strip = [dataclasses.replace(r, seconds=0.0) for r in h1]
    assert strip == [dataclasses.replace(r, seconds=0.0) for r in h2]


def test_training_reduces_cross_entropy_for_all_objectives():
    truth, pairs = fixture_data()
    for objective in ("mle_exact", "nce", "ns"):
        cfg = TrainConfig(objective=objective, k=4, epochs=8, eval_every=8,
                          seed=0, batch_size=32, dim=4, learning_rate=0.4)
        params, history = train(cfg, pairs, 8, truth=truth)
        start = math.log(8)  # uniform model baseline
        assert history[-1].cross_entropy < start - 0.1
        assert history[-1].kl_truth < kl_truth_model(truth, init_params(8, 4, 0))


def test_history_length_matches_eval_schedule():
    truth, pairs = fixture_data(800)
    for epochs, every, expected in ((7, 3, [3, 6, 7]), (6, 3, [3, 6]), (2, 5, [2])):
        cfg = TrainConfig(objective="mle_exact", epochs=epochs, eval_every=every,
                          seed=0, batch_size=64, dim=3)
        _, history = train(cfg, pairs, 8)
        assert [row.epoch for row in history] == expected
        assert all(row.kl_truth is None for row in history)


def test_mle_objective_metric_is_minus_cross_entropy():
    truth, pairs = fixture_data(800)
    cfg = TrainConfig(objective="mle_exact", epochs=3, eval_every=3, seed=0,
                      batch_size=64, dim=3)
    _, history = train(cfg, pairs, 8, truth=truth)
    assert history[-1].objective == pytest.approx(-history[-1].cross_entropy)


def test_divergence_raises_with_epoch():
    truth, pairs = fixture_data(400)
    cfg = TrainConfig(objective="mle_exact", epochs=5, eval_every=5, seed=0,
                      batch_size=8, dim=4, learning_rate=1e12)
    # overflow on the way to non-finite params is the expected failure path
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(cfg, pairs, 8)
    exc = info.value
    assert 1 <= exc.epoch <= 5
    assert 1 <= exc.step <= 50  # 400 pairs in batches of 8
    assert exc.block in PARAM_BLOCKS
    assert f"epoch {exc.epoch}, step {exc.step}: first non-finite block {exc.block}" in str(exc)


def _reference_train(config, pairs, n_words, truth):
    """The training loop written out step by step: a ProxyBatch of each
    step's pairs from the same permutation, counted by the reference; k * n_c
    noise words per context drawn as counts by one multinomial call per step
    (none for MLE); the kernels run on those counts, and the update applied
    block by block."""
    stats = stats_from_pairs(pairs, n_words)
    # MLE normalizes exactly; NS freezes the normalizers whatever z_mode says.
    z_mode = {"mle_exact": Z_EXACT, "ns": Z_FIXED_ONE}.get(config.objective, config.z_mode)
    params = init_params(n_words, config.dim, config.seed, z_mode=z_mode)
    q = cfg = None
    if config.objective != "mle_exact":
        q = noise.parse_noise_spec(config.noise, stats, n_words)
        cfg = NceConfig(k=config.k, z_mode=config.z_mode, q=q)
    n = pairs.shape[0]
    history = []
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate * config.lr_decay ** (epoch - 1)
        perm = derive_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        noise_rng = derive_rng(config.seed, STREAM_NOISE, epoch)
        noise_total = np.zeros((n_words + 1, n_words), dtype=np.int64)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            batch = ProxyBatch(contexts=pairs[idx, 0], true_words=pairs[idx, 1],
                               noise_words=np.empty((idx.size, 0), dtype=np.int64))
            true = cell_counts(batch, n_words + 1, n_words).true
            if config.objective == "mle_exact":
                grad = grad_log_likelihood(params, true)
            else:
                counts = CellCounts(true, noise_rng.multinomial(config.k * true.sum(axis=1), q.probs))
                noise_total += counts.noise
                grad = mc_grad(params, counts, cfg) if config.objective == "nce" else ns_grad(params, counts)
            blocks = PARAM_BLOCKS if params.z_mode == Z_LEARNED_ZC else PARAM_BLOCKS[:3]
            for name in blocks:
                getattr(params, name)[...] += lr / idx.size * getattr(grad, name)
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            ce = -log_likelihood(params, stats.bigram_counts) / n
            if config.objective == "mle_exact":
                obj = -ce
            else:
                counts = CellCounts(stats.bigram_counts, noise_total)
                obj = (mc_loss(params, counts, cfg) if config.objective == "nce" else ns_loss(params, counts)) / n
            history.append(MetricsRow(
                epoch=epoch,
                cross_entropy=float(ce),
                kl_truth=kl_truth_model(truth, params),
                median_abs_log_z=float(np.median(np.abs(log_partitions(params)[stats.seen_contexts()]))),
                objective=float(obj),
                seconds=0.0,
            ))
    return params, history


# (|V|, pairs, batch size), each epoch ending on a short step. At 2**13
# cells per count block and one (|V| + 1) x |V| grid per step, |V| = 8 fits
# 113 steps in a block: 300 pairs in batches of 64 are one block and 1003 in
# batches of 8 are two. |V| = 70 fits one step per block.
_SHAPES = [(8, 300, 64), (8, 1003, 8), (70, 1500, 48)]
_RUNS = [("mle_exact", Z_FIXED_ONE), ("nce", Z_LEARNED_ZC), ("nce", Z_FIXED_ONE), ("ns", Z_FIXED_ONE),
         ("ns", Z_LEARNED_ZC)]


@pytest.mark.parametrize("n_words,n_pairs,batch_size", _SHAPES)
@pytest.mark.parametrize("objective,z_mode", _RUNS)
def test_train_matches_per_step_batch_reference(objective, z_mode, n_words, n_pairs, batch_size):
    assert COUNT_BLOCK_CELLS == 2**13
    truth = make_zipf_truth(n_words, 1.3, seed=3)
    pairs = generate_synthetic_corpus(truth, n_pairs, seed=4)
    cfg = TrainConfig(objective=objective, k=3, z_mode=z_mode, noise="unigram", epochs=3,
                      eval_every=2, seed=6, batch_size=batch_size, dim=4, learning_rate=0.4)
    params, history = train(cfg, pairs, n_words, truth=truth)
    want_params, want_history = _reference_train(cfg, pairs, n_words, truth)
    assert params.vector.tobytes() == want_params.vector.tobytes()
    assert [dataclasses.replace(r, seconds=0.0) for r in history] == want_history


def test_checkpoints_written_at_eval_epochs(tmp_path):
    truth, pairs = fixture_data(600)
    vocab = build_vocab(f"w{i}" for i in range(8))
    cfg = TrainConfig(objective="nce", k=2, epochs=4, eval_every=2, seed=0,
                      batch_size=32, dim=3)
    prefix = str(tmp_path / "run")
    params, _ = train(cfg, pairs, 8, truth=truth, vocab=vocab, checkpoint_prefix=prefix)
    for epoch in (2, 4):
        loaded, _ = load_model(f"{prefix}.ep{epoch}.model")
        assert loaded.dim == 3
    final, _ = load_model(f"{prefix}.ep4.model")
    assert np.array_equal(final.target_emb, params.target_emb)
    with pytest.raises(ValueError, match="vocabulary"):
        train(cfg, pairs, 8, checkpoint_prefix=prefix)


def test_sweep_degenerate_equals_single_run():
    truth, pairs = fixture_data(1000)
    base = TrainConfig(objective="nce", k=999, epochs=3, eval_every=3, seed=4,
                       batch_size=32, dim=4)
    rows = sweep_k(base, [7], pairs, 8, truth)
    from dataclasses import replace
    _, history = train(replace(base, k=7), pairs, 8, truth=truth)
    assert len(rows) == 1
    assert rows[0].k == 7
    assert rows[0].final_kl == history[-1].kl_truth
    assert rows[0].final_ce == history[-1].cross_entropy


def test_sweep_validates_ks():
    truth, pairs = fixture_data(400)
    base = TrainConfig(objective="nce", epochs=1, eval_every=1, seed=0, dim=3)
    with pytest.raises(ValueError, match="nonempty"):
        sweep_k(base, [], pairs, 8, truth)
    with pytest.raises(ValueError, match="ascending"):
        sweep_k(base, [5, 2], pairs, 8, truth)


def test_kl_and_cross_entropy_hand_values():
    params = init_params(2, 2, seed=0, z_mode=Z_EXACT)
    params.target_emb[:] = 0.0
    params.context_emb[:] = 0.0
    params.bias[:] = np.log([0.6, 0.4])
    truth_cond = np.array([[0.8, 0.2], [0.5, 0.5]])
    from ncelm.corpus import GroundTruthTable
    truth = GroundTruthTable(cond=truth_cond, context_marginal=np.array([0.5, 0.5]))
    rows = kl_truth_rows(truth, params)
    expect0 = 0.8 * math.log(0.8 / 0.6) + 0.2 * math.log(0.2 / 0.4)
    expect1 = 0.5 * math.log(0.5 / 0.6) + 0.5 * math.log(0.5 / 0.4)
    assert rows[0] == pytest.approx(expect0, rel=1e-12)
    assert rows[1] == pytest.approx(expect1, rel=1e-12)
    assert kl_truth_model(truth, params) == pytest.approx((expect0 + expect1) / 2)
    zero = init_params(4, 2, seed=0)
    zero.target_emb[:] = 0.0
    zero.context_emb[:] = 0.0
    pairs = np.array([[4, 0], [0, 1], [1, 2], [2, 3]])
    assert cross_entropy(zero, pair_count_matrix(pairs, 4)) == pytest.approx(math.log(4))


def test_metrics_csv_format(tmp_path):
    rows = [
        MetricsRow(epoch=2, cross_entropy=1.5, kl_truth=0.25, median_abs_log_z=0.125,
                   objective=-1.5, seconds=3.7),
        MetricsRow(epoch=4, cross_entropy=1.25, kl_truth=None, median_abs_log_z=0.0625,
                   objective=-1.25, seconds=7.4),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    # seconds is written as a constant so outputs stay byte-reproducible
    assert lines[1] == "2,1.5,0.25,0.125,-1.5,0"
    assert lines[2] == "4,1.25,,0.0625,-1.25,0"
