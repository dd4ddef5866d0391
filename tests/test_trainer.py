import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_reference import ProxyBatch, cell_counts
from ncelm import noise, trainer
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
    log_likelihood,
    log_partitions,
    save_model,
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
    sweep_runs,
    train,
    train_lockstep,
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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(objective="nce", seed=-1)
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
        apply_gradient(params, grad_log_likelihood(params, CellCounts(counts, None)), 1e-4)
        assert log_likelihood(params, counts) > before


def test_train_is_bit_deterministic():
    truth, pairs = fixture_data()
    cfg = TrainConfig(objective="nce", k=3, z_mode=Z_LEARNED_ZC, epochs=4,
                      eval_every=2, seed=9, batch_size=32, dim=4)
    p1, h1 = train(cfg, pairs, 8, truth=truth)
    p2, h2 = train(cfg, pairs, 8, truth=truth)
    assert np.array_equal(p1.target_emb, p2.target_emb)
    assert np.array_equal(p1.log_zc, p2.log_zc)
    assert h1 == h2


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
        q = noise.parse_noise_spec(config.noise, stats)
        cfg = NceConfig(k=config.k, q=q)
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
                grad = grad_log_likelihood(params, CellCounts(true, None))
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
    assert history == want_history


@pytest.mark.parametrize("sampled", [True, False])
@pytest.mark.parametrize("n_runs", [1, 3])
def test_block_counts_viewed_per_step_equal_counts_built_per_step_bitwise(n_runs, sampled):
    # An epoch's steps are views into one CellCounts per count block, the
    # fields their objective reads computed once for the block: each step's
    # fields are the bits of a CellCounts built from that step's grids
    # alone. A sampled block carries the two-class totals and halves; an
    # exact-MLE block, drawn without samplers, only the context totals n_c.
    # 1003 pairs in batches of 8 at |V| = 8 are two blocks.
    _, pairs = fixture_data(1003)
    q = noise.unigram(stats_from_pairs(pairs, 8))
    perms = np.stack([derive_rng(r, STREAM_SHUFFLE, 1).permutation(len(pairs)) for r in range(n_runs)])
    samplers = [(q, 1 + 2 * r, derive_rng(r, STREAM_NOISE, 1)) for r in range(n_runs)] if sampled else None
    totals = np.zeros((n_runs, 9, 8), dtype=np.int64)
    sel = 0 if n_runs == 1 else slice(None)
    steps = list(trainer._epoch_counts(pairs, perms, samplers, 8, 8, totals, sel))
    assert [size for size, _ in steps] == [8] * 125 + [3]
    derived = ("true_total", "noise_total", "half_diff", "half_sum") if sampled else ("context_totals",)
    for _, got in steps:
        want = CellCounts(got.true.copy(), got.noise.copy() if sampled else None)
        assert (got.noise is None) is not sampled
        for field in ("true", "noise")[: 1 + sampled] + derived:
            g, w = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), field
        if sampled:
            assert "context_totals" not in vars(got)  # a sampled step never derives it
            assert np.array_equal(want.noise_total, np.array([1, 3, 5])[sel] * want.true_total)
            assert np.array_equal(want.half_diff, (want.true - want.noise) / 2)
            assert np.array_equal(want.half_sum, (want.true + want.noise) / 2)
        else:
            assert np.array_equal(want.context_totals, want.true.sum(axis=-1, keepdims=True))
    # The steps of one block view the same derived arrays.
    for field in derived[-2:]:
        first, second = (getattr(counts, field).base for _, counts in steps[:2])
        assert first is not None and first is second


@pytest.mark.parametrize("n_runs", [1, 2])
def test_a_short_noise_draw_fails_the_k_check_in_training(n_runs, monkeypatch):
    # The k check reads the totals of the step's counts, computed per count
    # block: a draw one noise word short stops training with "k mismatch".
    _, pairs = fixture_data(400)
    draw = noise.sample_array

    def short(q, totals, rng):
        drawn = draw(q, totals, rng)
        drawn.flat[np.flatnonzero(drawn)[0]] -= 1
        return drawn

    monkeypatch.setattr(noise, "sample_array", short)
    configs = [TrainConfig(objective="nce", k=3, noise="unigram", epochs=1, batch_size=32, dim=3, seed=s)
               for s in range(n_runs)]
    with pytest.raises(ValueError, match="k mismatch"):
        train(configs[0], pairs, 8) if n_runs == 1 else train_lockstep(configs, pairs, 8)


@pytest.mark.parametrize("objective", ["mle_exact", "nce", "ns"])
def test_a_batch_larger_than_the_data_trains_as_one_full_batch(objective):
    # A count block holds at most the epoch's pairs, so a batch size far past
    # the data allocates by the data, and trains exactly as a batch of n.
    truth = make_zipf_truth(6, 1.3, seed=3)
    pairs = generate_synthetic_corpus(truth, 500, seed=4)
    results = []
    for batch_size in (500, 10**12):
        cfg = TrainConfig(objective=objective, k=3, noise="unigram", epochs=3, eval_every=1,
                          seed=6, batch_size=batch_size, dim=3, learning_rate=0.4)
        params, history = train(cfg, pairs, 6, truth=truth)
        results.append((params.vector.tobytes(), _exact(history)))
    assert results[0] == results[1]


def _exact(history):
    """MetricsRows as a string that tells floats apart to the bit (repr
    round-trips)."""
    return repr(history)


def _recorder(calls):
    """An on_eval hook that appends (run, epoch, parameter bytes, z_mode,
    exact row) to ``calls``; the parameters are copied during the call."""
    return lambda run, epoch, params, row: calls.append(
        (run, epoch, params.vector.tobytes(), params.z_mode, _exact([row])))


# (k, seed, noise, learning rate) of the runs trained in lockstep.
_MIXED = [(1, 0, "unigram", 0.4), (5, 1, "uniform", 0.3), (3, 2, "flattened:0.5", 0.5),
          (2, 0, "uniform", 0.4), (4, 3, "unigram", 0.45)]


@pytest.mark.parametrize("batch_size", [48, 8])
@pytest.mark.parametrize("objective,z_mode", _RUNS[:4])
def test_lockstep_runs_equal_solo_runs_bitwise(objective, z_mode, batch_size, tmp_path):
    # 1003 pairs: each epoch ends on a short step; in batches of 8 an epoch
    # takes two count blocks. Each run's parameters, metric rows, on_eval
    # calls and written model and metrics files are those of training it alone.
    truth, pairs = fixture_data(1003)
    vocab = build_vocab(f"w{i}" for i in range(8))
    configs = [TrainConfig(objective=objective, k=k, z_mode=z_mode, noise=noise, seed=seed,
                           learning_rate=lr, epochs=3, eval_every=2, batch_size=batch_size, dim=4)
               for k, seed, noise, lr in _MIXED]
    calls = []
    results = train_lockstep(configs, pairs, 8, truth=truth, on_eval=_recorder(calls))
    # One call per run at each eval epoch, epoch by epoch and in run order.
    assert [c[:2] for c in calls] == [(r, e) for e in (2, 3) for r in range(len(configs))]
    for r, (config, (params, history)) in enumerate(zip(configs, results)):
        solo_calls = []
        want_params, want_history = train(config, pairs, 8, truth=truth, on_eval=_recorder(solo_calls))
        assert params.vector.tobytes() == want_params.vector.tobytes()
        assert params.vector.shape == want_params.vector.shape and params.z_mode == want_params.z_mode
        assert _exact(history) == _exact(want_history)
        assert [c[1:] for c in calls if c[0] == r] == [c[1:] for c in solo_calls]
        assert {c[0] for c in solo_calls} == {0}
        assert solo_calls[-1][1:] == (3, params.vector.tobytes(), params.z_mode, _exact(history[-1:]))
        for tag, p, h in (("stack", params, history), ("solo", want_params, want_history)):
            save_model(tmp_path / f"{tag}{r}.model", p, vocab)
            write_metrics_csv(h, tmp_path / f"{tag}{r}.csv")
        for suffix in (".model", ".csv"):
            assert (tmp_path / f"stack{r}{suffix}").read_bytes() == (tmp_path / f"solo{r}{suffix}").read_bytes()


@pytest.mark.parametrize(
    "objective,lrs",
    # MLE: lr 1e13 overflows a metric at epoch 1; 1e12 and 3e11 overflow the
    # parameters at steps 2 and 3 of epoch 2, so the lr 0.4 run trains alone
    # from there. NCE and NS: 2e6 and 5e6 overflow a metric at epochs 3 and 2.
    [("mle_exact", [0.4, 1e12, 1e13, 3e11]), ("nce", [2e6, 0.4, 5e6]), ("ns", [2e6, 0.4, 5e6])],
)
def test_lockstep_divergence_matches_solo_runs(objective, lrs):
    truth, pairs = fixture_data(400)
    configs = [TrainConfig(objective=objective, k=1 + r, noise="unigram", seed=r, learning_rate=lr,
                           epochs=3, eval_every=1, batch_size=32, dim=2)
               for r, lr in enumerate(lrs)]
    # on_eval fires at every eval epoch of a run until it diverges, and
    # neither for the epoch it diverges in nor after, alone or stacked.
    calls = []
    with np.errstate(over="ignore", invalid="ignore"):
        results = train_lockstep(configs, pairs, 8, truth=truth, on_eval=_recorder(calls))
        for r, (config, result) in enumerate(zip(configs, results)):
            solo_calls = []
            try:
                params, history = train(config, pairs, 8, truth=truth, on_eval=_recorder(solo_calls))
            except TrainingDiverged as exc:
                assert isinstance(result, TrainingDiverged)
                assert (str(result), result.epoch, result.step, result.block, result.lr) == (
                    str(exc), exc.epoch, exc.step, exc.block, exc.lr)
                assert exc.lr == config.learning_rate * config.lr_decay ** (exc.epoch - 1)
                assert str(exc).endswith(f"(lr {exc.lr:.9g})")
                epochs = list(range(1, exc.epoch))
            else:
                assert result[0].vector.tobytes() == params.vector.tobytes()
                assert _exact(result[1]) == _exact(history)
                epochs = [1, 2, 3]
            assert [c[1] for c in solo_calls] == epochs
            assert [c[1:] for c in calls if c[0] == r] == [c[1:] for c in solo_calls]
    assert calls == sorted(calls, key=lambda c: (c[1], c[0]))
    kinds = {"ok" if isinstance(r, tuple) else r.block in PARAM_BLOCKS for r in results}
    assert kinds == ({"ok", True, False} if objective == "mle_exact" else {"ok", False})


def _diverging_stack(objective, lrs):
    """The configs of test_lockstep_divergence_matches_solo_runs."""
    return [TrainConfig(objective=objective, k=1 + r, noise="unigram", seed=r, learning_rate=lr,
                        epochs=3, eval_every=1, batch_size=32, dim=2)
            for r, lr in enumerate(lrs)]


def _float_errors(fn):
    """What ``fn()`` returns or raises, and how many numpy floating-point
    errors it met."""
    errors = []
    with np.errstate(all="call", call=lambda kind, flag: errors.append(kind)):
        try:
            result = fn()
        except TrainingDiverged as exc:
            result = exc
    return result, len(errors)


@pytest.mark.parametrize(
    "objective,lrs",
    # The stacks of test_lockstep_divergence_matches_solo_runs, and one in
    # which every run diverges.
    [("mle_exact", [0.4, 1e12, 1e13, 3e11]), ("nce", [2e6, 0.4, 5e6]), ("ns", [2e6, 0.4, 5e6]),
     ("mle_exact", [1e12, 3e11])],
)
def test_lockstep_parked_runs_stay_finite_and_raise_no_float_errors(objective, lrs, monkeypatch):
    # A parked run's zero row goes through every kernel until the call
    # returns. A NaN row would pass them quietly, but the stack would then
    # fail the finiteness check at every later step.
    truth, pairs = fixture_data(400)
    configs = _diverging_stack(objective, lrs)
    solo = sum(_float_errors(lambda: train(c, pairs, 8, truth=truth))[1] for c in configs)
    checks = []
    check = trainer.params_finite
    monkeypatch.setattr(trainer, "params_finite", lambda p: checks.append(check(p)) or checks[-1])
    results, stacked = _float_errors(lambda: train_lockstep(configs, pairs, 8, truth=truth))
    assert 0 < stacked <= solo
    diverged = {(r.epoch, r.step) for r in results
                if isinstance(r, TrainingDiverged) and r.block in PARAM_BLOCKS}
    assert checks.count(False) == len(diverged)


def test_lockstep_returns_once_every_run_has_diverged(monkeypatch):
    # lr 1e12 and 3e11 overflow the parameters at steps 2 and 3 of epoch 2.
    truth, pairs = fixture_data(400)
    configs = _diverging_stack("mle_exact", [1e12, 3e11])
    solo = [_float_errors(lambda: train(c, pairs, 8, truth=truth))[0] for c in configs]
    steps = []
    step = trainer.apply_gradient
    monkeypatch.setattr(trainer, "apply_gradient", lambda *a: steps.append(a) or step(*a))
    results, _ = _float_errors(lambda: train_lockstep(configs, pairs, 8, truth=truth))
    for got, want in zip(results, solo):
        assert isinstance(got, TrainingDiverged) and want.block in PARAM_BLOCKS
        assert (str(got), got.epoch, got.step, got.block, got.lr) == (
            str(want), want.epoch, want.step, want.block, want.lr)
    last = max(solo, key=lambda exc: (exc.epoch, exc.step))
    assert len(steps) == (last.epoch - 1) * -(-len(pairs) // 32) + last.step


_OBJECTIVE_Z = [("mle_exact", Z_EXACT), ("nce", Z_LEARNED_ZC), ("nce", Z_FIXED_ONE), ("ns", Z_FIXED_ONE),
                ("ns", Z_LEARNED_ZC)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_lockstep_random_stacks_equal_solo_runs_bitwise(data):
    # Random stacks of 2-4 runs, each with its own k, q, lr and seed, over
    # |V| down to 2, batches that do not divide n or exceed it, and count
    # blocks of any size, so that blocks end anywhere in an epoch, down to
    # one step each. Every run is bitwise what training it alone gives.
    n_words = data.draw(st.sampled_from([2, 3, 8, 24]), label="n_words")
    n_pairs = data.draw(st.integers(n_words, n_words + 120), label="n_pairs")
    batch_size = data.draw(st.integers(1, n_pairs + 20), label="batch_size")
    block_cells = data.draw(st.integers(1, 2**13), label="block_cells")
    objective, z_mode = data.draw(st.sampled_from(_OBJECTIVE_Z), label="objective")
    runs = data.draw(st.lists(st.tuples(
        st.integers(1, 6), st.sampled_from(["uniform", "unigram", "flattened:0.5"]),
        st.floats(0.05, 1.0), st.integers(0, 5)), min_size=2, max_size=4), label="runs")
    truth = make_zipf_truth(n_words, 1.3, seed=3)
    pairs = generate_synthetic_corpus(truth, n_pairs, seed=n_pairs)
    pairs[:n_words, 1] = np.arange(n_words)  # every word occurs: unigram q needs it
    configs = [TrainConfig(objective=objective, k=k, z_mode=z_mode, noise=noise, learning_rate=lr,
                           seed=seed, epochs=2, eval_every=1, batch_size=batch_size, dim=2)
               for k, noise, lr, seed in runs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "COUNT_BLOCK_CELLS", block_cells)
        results = train_lockstep(configs, pairs, n_words, truth=truth)
        for config, (params, history) in zip(configs, results, strict=True):
            want_params, want_history = train(config, pairs, n_words, truth=truth)
            assert params.vector.tobytes() == want_params.vector.tobytes()
            assert _exact(history) == _exact(want_history)


def test_lockstep_validates_its_runs():
    truth, pairs = fixture_data(200)
    cfg = TrainConfig(objective="nce", epochs=1, eval_every=1, seed=0, dim=3)
    with pytest.raises(ValueError, match="at least one config"):
        train_lockstep([], pairs, 8)
    for field in ("objective", "z_mode", "dim", "batch_size", "epochs", "eval_every"):
        other = {"objective": "ns", "z_mode": Z_LEARNED_ZC, "dim": 4, "batch_size": 16,
                 "epochs": 2, "eval_every": 2}[field]
        with pytest.raises(ValueError, match="must share"):
            train_lockstep([cfg, dataclasses.replace(cfg, **{field: other})], pairs, 8)


def test_eval_helpers_on_a_stack_equal_solo_calls_bitwise():
    truth, pairs = fixture_data(600)
    counts = pair_count_matrix(pairs, 8)
    rng = derive_rng(12, STREAM_DATA)
    params = init_params(8, 3, seed=0)
    stack = params.with_vector(params.vector + rng.normal(0.0, 1.0, (3, params.vector.size)))
    solo = [params.with_vector(row.copy()) for row in stack.vector]
    assert kl_truth_rows(truth, stack).tobytes() == np.stack([kl_truth_rows(truth, p) for p in solo]).tobytes()
    for helper in (lambda p: kl_truth_model(truth, p), lambda p: cross_entropy(p, counts)):
        got = helper(stack)
        assert got.shape == (3,)
        assert got.tobytes() == np.array([helper(p) for p in solo]).tobytes()
        assert all(type(helper(p)) is float for p in solo)


@pytest.mark.parametrize("objective,z_mode", _RUNS[:4])
def test_on_eval_sees_each_eval_epochs_parameters(objective, z_mode):
    # The parameters on_eval sees at epoch e are those of the same run
    # trained for e epochs, and its row is the history's row of epoch e.
    truth, pairs = fixture_data(600)
    cfg = TrainConfig(objective=objective, k=2, z_mode=z_mode, epochs=5, eval_every=2, seed=0,
                      batch_size=32, dim=3)
    calls = []
    _, history = train(cfg, pairs, 8, truth=truth, on_eval=_recorder(calls))
    assert [c[:2] for c in calls] == [(0, 2), (0, 4), (0, 5)]
    for (_, epoch, vector, z, row), want_row in zip(calls, history, strict=True):
        params, rows = train(dataclasses.replace(cfg, epochs=epoch), pairs, 8, truth=truth)
        assert (vector, z) == (params.vector.tobytes(), params.z_mode)
        assert row == _exact([want_row]) == _exact(rows[-1:])


def test_an_exception_from_on_eval_propagates():
    truth, pairs = fixture_data(200)
    cfg = TrainConfig(objective="nce", epochs=3, eval_every=1, seed=0, dim=3)

    def hook(run, epoch, params, row):
        if (run, epoch) == (1, 2):
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        train_lockstep([cfg, dataclasses.replace(cfg, seed=1)], pairs, 8, on_eval=hook)


def test_sweep_degenerate_equals_single_run():
    truth, pairs = fixture_data(1000)
    base = TrainConfig(objective="nce", k=999, epochs=3, eval_every=3, seed=4,
                       batch_size=32, dim=4)
    rows = list(sweep_runs([base], [7], pairs, 8, truth))
    _, history = train(dataclasses.replace(base, k=7), pairs, 8, truth=truth)
    assert len(rows) == 1
    config, row = rows[0]
    assert (config.seed, config.k) == (4, 7)
    assert row.kl_truth == history[-1].kl_truth
    assert row.cross_entropy == history[-1].cross_entropy


def test_sweep_trains_its_runs_in_chunks_of_bounded_size(monkeypatch):
    # Room for 4 permutations of the 300 pairs: 6 runs train as 4 then 2,
    # and every row is that of training its run alone.
    truth, pairs = fixture_data(300)
    monkeypatch.setattr(trainer, "LOCKSTEP_PAIRS", 4 * 300 + 299)
    sizes = []
    lockstep = trainer.train_lockstep
    monkeypatch.setattr(trainer, "train_lockstep",
                        lambda configs, *a, **kw: sizes.append(len(configs)) or lockstep(configs, *a, **kw))
    bases = [TrainConfig(objective="nce", noise="unigram", epochs=2, eval_every=2, seed=seed,
                         batch_size=32, dim=3) for seed in (0, 1)]
    rows = list(sweep_runs(bases, [1, 2, 5], pairs, 8, truth))
    assert sizes == [4, 2]
    for (config, row), (base, k) in zip(rows, [(b, k) for b in bases for k in (1, 2, 5)], strict=True):
        last = train(dataclasses.replace(base, k=k), pairs, 8, truth=truth)[1][-1]
        assert config == dataclasses.replace(base, k=k)
        assert row == last


def test_sweep_validates_ks():
    # Each bad argument raises at the call, not when the first row is asked for.
    truth, pairs = fixture_data(400)
    base = TrainConfig(objective="nce", epochs=1, eval_every=1, seed=0, dim=3)
    for bases, ks, data, match in (
        ([base], [], pairs, "nonempty"),
        ([base], [5, 2], pairs, "ascending"),
        ([base], [2, 2], pairs, "ascending"),
        ([base], [0, 2], pairs, "k must be >= 1"),
        ([], [1, 2], pairs, "at least one base"),
        ([base], [1, 2], pairs[:0], "at least one pair"),
        # Chunks of one run could train these, but a sweep's runs must share a shape.
        ([base, dataclasses.replace(base, dim=4)], [1], pairs, "must share"),
    ):
        with pytest.raises(ValueError, match=match):
            sweep_runs(bases, ks, data, 8, truth)


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
                   objective=-1.5),
        MetricsRow(epoch=4, cross_entropy=1.25, kl_truth=None, median_abs_log_z=0.0625,
                   objective=-1.25),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    # The trainer reads no clock: seconds is written as a constant 0, so
    # outputs stay byte-reproducible and keep their earlier layout.
    assert lines[1] == "2,1.5,0.25,0.125,-1.5,0"
    assert lines[2] == "4,1.25,,0.0625,-1.25,0"
