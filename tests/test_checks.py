import tracemalloc

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts
from finite_diff_reference import finite_diff_reference, tiled_stack
from ncelm import checks, cli, nce, negsampling, noise, trainer
from ncelm.checks import (
    finite_diff_gradient,
    run_equiv_check,
    run_gradcheck,
)
from ncelm.model import Z_FIXED_ONE, Z_LEARNED_ZC, CellCounts, init_params
from ncelm.noise import uniform
from ncelm.seeding import STREAM_DATA, derive_rng


def test_finite_diff_restores_parameters():
    p = init_params(3, 2, seed=0)
    before = p.target_emb.copy()
    finite_diff_gradient(lambda q: q.target_emb.sum(axis=(-2, -1)), p)
    assert np.array_equal(p.target_emb, before)


def test_finite_diff_on_linear_function_is_exact():
    p = init_params(3, 2, seed=1)
    g = finite_diff_gradient(lambda q: 2.0 * q.bias.sum(axis=-1), p)
    assert np.allclose(g.bias, 2.0, atol=1e-9)
    assert np.allclose(g.target_emb, 0.0, atol=1e-9)


def test_finite_diff_equals_the_coordinate_loop_on_every_gradcheck_suite(monkeypatch):
    # Each (suite, z_mode) of `gradcheck --which all` takes one finite
    # difference of its stack of five models, and model i's gradient is
    # bitwise the one the per-coordinate loop computes on model i alone with
    # its own count grid. A model has 125 coordinates, and a stack of 2^14
    # cells holds 10 of them for all five models. Every suite reads the
    # one fixture's counts.
    drawn = []
    draws = checks._draws
    monkeypatch.setattr(checks, "_draws", lambda *args: drawn.append(draws(*args)) or drawn[-1])
    cfg = nce.NceConfig(k=checks._GC_K, q=uniform(checks._GC_VOCAB))
    suites = iter([label for label in checks.GRADCHECK_SUITES for _ in checks._SUITES[label][0]])
    compared = []

    def both(loss_fn, params):
        loss = checks._SUITES[next(suites)][2]
        [(_, counts)] = drawn
        stacks = []

        def recorded(p):
            stacks.append(p.vector.shape)
            return loss_fn(p)

        got = finite_diff_gradient(recorded, params)
        same = []
        for i, vector in enumerate(params.vector):
            one = CellCounts(counts.true[i], counts.noise[i])
            want = finite_diff_reference(lambda p: loss(p, one, cfg), params.with_vector(vector.copy()))
            same.append(got.vector[i].tobytes() == want.vector.tobytes())
        compared.append((same, stacks))
        return got

    monkeypatch.setattr(checks, "finite_diff_gradient", both)
    assert run_gradcheck(which="all", seed=5).ok
    stacks = [(20, checks._GC_MODELS, 125)] * 12 + [(10, checks._GC_MODELS, 125)]
    assert compared == [([True] * checks._GC_MODELS, stacks)] * 6


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-model", "stack"])
def test_finite_diff_stacks_are_the_tiled_copies_bitwise(monkeypatch, lead):
    # Each loss call gets the bytes of the tiled construction, so the
    # entries a call does not move, -0.0, NaNs with a payload and a sign,
    # and +-inf, are exact copies. At |V| 3 a model has 21 coordinates and
    # 12 cells, so 2^8 cells take 10 coordinates of one model (calls of 10,
    # 10 and 1) or 3 of three models (7 calls).
    monkeypatch.setattr(checks, "FD_BLOCK_CELLS", 2**8)
    models = np.stack([init_params(3, 2, seed=i).vector for i in range(3)])
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    models[:, [0, 4, 9, 13, 20]] = [-0.0, payload_nan, -np.nan, np.inf, -np.inf]
    models[1, 15] = -0.0
    params = init_params(3, 2, seed=0).with_vector(models[0] if not lead else models)
    stacks = []

    def loss(p):
        stacks.append(p.vector.copy())
        return np.zeros(p.vector.shape[:-1])

    finite_diff_gradient(loss, params)
    vec = params.vector.reshape(-1, 21)
    assert [len(stack) // 2 for stack in stacks] == ([10, 10, 1] if not lead else [3] * 7)
    start = 0
    for stack in stacks:
        coords = np.arange(start, start + len(stack) // 2)
        want = tiled_stack(vec, coords).reshape(stack.shape)
        assert stack.tobytes() == want.tobytes()
        start = coords[-1] + 1


@pytest.mark.parametrize("which", ["all", *checks.GRADCHECK_SUITES])
def test_gradcheck_draws_each_fixture_once(monkeypatch, which):
    # The one fixture that every (suite, z_mode) relabels is drawn once per
    # call, and each (suite, z_mode) gradient call gets params, their z_mode
    # label included, and counts bitwise equal to a fresh draw for that
    # suite alone.
    draws = checks._draws
    calls = []
    monkeypatch.setattr(checks, "_draws", lambda *args: calls.append(args) or draws(*args))
    seen = []

    def fingerprint(params, counts):
        return params.vector.tobytes(), params.z_mode, counts.true.tobytes(), counts.noise.tobytes()

    for label, (z_modes, grad, loss) in list(checks._SUITES.items()):
        def recorded(params, counts, cfg, grad=grad):
            seen.append(fingerprint(params, counts))
            return grad(params, counts, cfg)

        monkeypatch.setitem(checks._SUITES, label, (z_modes, recorded, loss))
    assert run_gradcheck(which=which, seed=6).ok
    assert len(calls) == 1
    want = [fingerprint(*draws(6, range(checks._GC_MODELS), checks._GC_VOCAB, checks._GC_DIM,
                               z_mode, checks._GC_PAIRS, checks._GC_K))
            for label in (checks.GRADCHECK_SUITES if which == "all" else (which,))
            for z_mode in checks._SUITES[label][0]]
    assert seen == want


def test_check_reports_do_not_depend_on_the_trainers_draw_rule(monkeypatch):
    # The trainer draws a step's noise word by word or as multinomials by
    # noise.draws_words; the checks draw one multinomial per batch either
    # way, so moving the rule's threshold to either end moves no digit.
    reports = []
    for per_cell in (0, 10**6):
        monkeypatch.setattr(noise, "WORD_DRAWS_PER_CELL", per_cell)
        assert noise.draws_words(checks._GC_K, checks._GC_PAIRS, checks._GC_VOCAB) is (per_cell > 0)
        reports.append([run_gradcheck("all").lines, run_equiv_check(vocab_size=8).lines,
                        run_equiv_check(vocab_size=64).lines])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n_models,budget", [(1, 2**16), (2, 2**17)])
def test_finite_diff_equals_the_coordinate_loop_across_chunks(monkeypatch, n_models, budget):
    # At |V| = 64 the budget holds 7 coordinates of the stack's models (one
    # model unstacked, or two), so the 645 coordinates take 93 loss calls,
    # the last of them on a single coordinate.
    monkeypatch.setattr(checks, "FD_BLOCK_CELLS", budget)
    params, counts = checks._draws(8, range(n_models), 64, 4, Z_LEARNED_ZC, 300, 2)
    if n_models == 1:
        params, counts = params.with_vector(params.vector[0]), CellCounts(*(c[0] for c in counts))
    lead = params.vector.shape[:-1]
    cfg = nce.NceConfig(k=2, q=uniform(64))
    calls = []

    def loss(p):
        calls.append(p.vector.shape)
        return nce.mc_loss(p, counts, cfg)

    got = finite_diff_gradient(loss, params)
    assert len(calls) == 93 and calls[0] == (14, *lead, 645) and calls[-1] == (2, *lead, 645)
    for i, vector in enumerate(params.vector.reshape(-1, 645)):
        one = CellCounts(*(c.reshape(-1, 65, 64)[i] for c in counts))
        want = finite_diff_reference(lambda p: nce.mc_loss(p, one, cfg), params.with_vector(vector.copy()))
        assert got.vector.reshape(-1, 645)[i].tobytes() == want.vector.tobytes()


def test_gradcheck_single_suite_and_unknown():
    res = run_gradcheck(which="ns", seed=3)
    assert res.ok
    assert any("ns" in line for line in res.lines)
    with pytest.raises(ValueError):
        run_gradcheck(which="sgd")


def test_gradcheck_corrupt_negative_control():
    res = run_gradcheck(which="mle", seed=0, corrupt=True)
    assert not res.ok
    assert "FAIL" in res.report()
    # The failing coordinate prints as plain ints.
    assert res.lines[0] == "gradcheck mle target_emb worst_err 1.000e+00 FAIL at target_emb[0, 0]"


def test_equiv_check_negative_control_and_validation():
    assert run_equiv_check(vocab_size=8, seed=1).ok
    assert not run_equiv_check(vocab_size=8, seed=1, force_k=7).ok
    with pytest.raises(ValueError):
        run_equiv_check(vocab_size=1)


def test_gradcheck_fails_on_nan(monkeypatch, capsys):
    exact = trainer.grad_log_likelihood

    def nan_at_first_coordinate(params, counts, out=None):
        grad = exact(params, counts, out)
        grad.target_emb[..., 0, 0] = np.nan  # in every model of the stack
        return grad

    monkeypatch.setattr(trainer, "grad_log_likelihood", nan_at_first_coordinate)
    res = run_gradcheck(which="mle")
    assert not res.ok
    assert res.lines[0].startswith("gradcheck mle target_emb worst_err nan FAIL at target_emb")
    assert cli.main(["gradcheck", "--which", "mle"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck FAIL (tolerance 1e-05)"


@pytest.mark.parametrize("model", [0, 3])
def test_gradcheck_keeps_a_nan_that_later_finite_models_follow(monkeypatch, capsys, model):
    # Only one of the five mle models of the stack gets a NaN coordinate;
    # the finite models before and after it must not clear it, and the
    # failing coordinate is named within its model's block.
    exact = trainer.grad_log_likelihood
    calls = []

    def nan_in_one_model(params, counts, out=None):
        grad = exact(params, counts, out)
        grad.bias[model, 3] = np.nan
        calls.append(params.vector.shape)
        return grad

    monkeypatch.setattr(trainer, "grad_log_likelihood", nan_in_one_model)
    res = run_gradcheck(which="mle")
    assert calls == [(checks._GC_MODELS, 125)] and not res.ok
    assert res.lines[2] == "gradcheck mle bias worst_err nan FAIL at bias[3]"
    assert cli.main(["gradcheck", "--which", "mle"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck FAIL (tolerance 1e-05)"


def test_equiv_check_fails_on_nan(monkeypatch, capsys):
    monkeypatch.setattr(negsampling, "ns_loss", lambda params, counts: np.nan)
    res = run_equiv_check()
    assert not res.ok
    assert "max |dloss| nan" in res.lines
    assert cli.main(["equiv-check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "equiv-check FAIL (tolerance 1e-10)"


def test_equiv_check_fails_on_a_nan_gradient(monkeypatch, capsys):
    grad = negsampling.ns_grad

    def nan_at_one_coordinate(params, counts, out=None):
        out = grad(params, counts, out)
        out.context_emb[..., 2, 1] = np.nan  # in every draw of the stack
        return out

    monkeypatch.setattr(negsampling, "ns_grad", nan_at_one_coordinate)
    res = run_equiv_check()
    assert not res.ok
    assert res.lines[1:] == ["max |dloss| 0.000e+00", "max |dgrad| nan",
                             "equiv-check FAIL (tolerance 1e-10)"]
    assert cli.main(["equiv-check"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["max |dgrad| nan",
                                                         "equiv-check FAIL (tolerance 1e-10)"]


@pytest.mark.parametrize("suite,objective", [("mle", trainer.OBJ_MLE), ("nce-mc", trainer.OBJ_NCE),
                                             ("ns", trainer.OBJ_NS)])
def test_gradcheck_suites_hold_the_trainers_kernels(suite, objective):
    # gradcheck verifies the very callables the trainer steps with: a kernel
    # swapped for training cannot skip the check.
    _, grad, loss = checks._SUITES[suite]
    _, trained_grad, trained_loss = trainer.OBJECTIVES[objective]
    assert grad is trained_grad and loss is trained_loss


def _record_counts(monkeypatch, module, name):
    """Wrap a kernel so that each call records the counts it was given."""
    seen = []
    kernel = getattr(module, name)

    def spy(params, counts, *rest):
        seen.append(counts)
        return kernel(params, counts, *rest)

    monkeypatch.setattr(module, name, spy)
    return seen


def _reference_counts(rng, n_pairs, n_words, k):
    """Reference counts of the batch the checks draw: after the model's
    N(0, 0.5^2) log_zc, contexts, then true words, then k * n_c uniform
    noise words for each context c, drawn as counts by one multinomial."""
    rng.normal(0.0, 0.5, n_words + 1)
    contexts = rng.integers(0, n_words + 1, n_pairs)
    words = rng.integers(0, n_words, n_pairs)
    batch = ProxyBatch(contexts, words, np.empty((n_pairs, 0), dtype=np.int64))
    true = cell_counts(batch, n_words + 1, n_words).true
    return CellCounts(true, rng.multinomial(k * true.sum(axis=1), np.full(n_words, 1.0 / n_words)))


def _assert_same_counts(seen, want):
    # One stacked kernel call per list of reference batches, model i of its
    # stack on batch i.
    assert len(seen) == len(want)
    for got, batches in zip(seen, want):
        assert got.true.shape[0] == len(batches)
        for i, ref in enumerate(batches):
            assert np.array_equal(got.true[i], ref.true)
            assert np.array_equal(got.noise[i], ref.noise)


@pytest.mark.parametrize("suite", ["ns", "nce-mc"])
def test_gradcheck_counts_match_reference_batches(monkeypatch, suite):
    assert checks._GC_K > 1
    module, name = (negsampling, "ns_grad") if suite == "ns" else (nce, "mc_grad")
    seen = _record_counts(monkeypatch, module, name)
    assert run_gradcheck(which=suite, seed=2).ok
    # nce-mc runs learned_zc, then fixed_one, on the same batches.
    batches = [_reference_counts(derive_rng(2, STREAM_DATA, i), checks._GC_PAIRS, checks._GC_VOCAB, checks._GC_K)
               for i in range(checks._GC_MODELS)]
    _assert_same_counts(seen, [batches] * len(checks._SUITES[suite][0]))


@pytest.mark.parametrize("vocab_size,force_k,per_stack", [(6, None, 20), (5, 3, 20), (8, 64, 20), (64, None, 15)],
                         ids=["6-None", "5-3", "8-64", "64-None"])
def test_equiv_check_counts_match_reference_batches(monkeypatch, vocab_size, force_k, per_stack):
    # Each draw is a batch of 30 pairs, its noise one multinomial. At |V| 64
    # the 20 draws go in stacks of 15 and 5.
    k = force_k or vocab_size
    seen = _record_counts(monkeypatch, negsampling, "ns_grad")
    run_equiv_check(vocab_size=vocab_size, seed=4, force_k=force_k)
    draws = range(checks.EQUIV_DRAWS)
    want = [[_reference_counts(derive_rng(4, STREAM_DATA, i), 30, vocab_size, k) for i in draws[lo : lo + per_stack]]
            for lo in range(0, checks.EQUIV_DRAWS, per_stack)]
    _assert_same_counts(seen, want)


def _per_draw_gaps(vocab_size, seed, k, draws):
    """|dloss| and max |dgrad| of each equiv-check draw, one draw at a time
    through the single-model kernels: the loop the stacked check replaced.
    Each model takes its draw's log_zc, which fixed_one kernels never read."""
    cfg = nce.NceConfig(k=k, q=uniform(vocab_size))
    dloss, dgrad = np.empty((2, draws))
    for i in range(draws):
        params = init_params(vocab_size, 4, seed + i, z_mode=Z_FIXED_ONE)
        params.log_zc[:] = derive_rng(seed, STREAM_DATA, i).normal(0.0, 0.5, vocab_size + 1)
        batch = _reference_counts(derive_rng(seed, STREAM_DATA, i), 30, vocab_size, k)
        counts = CellCounts(*(c.astype(np.float64) for c in batch))
        dloss[i] = abs(nce.mc_loss(params, counts, cfg) - negsampling.ns_loss(params, counts))
        dgrad[i] = np.max(np.abs(nce.mc_grad(params, counts, cfg).vector
                                 - negsampling.ns_grad(params, counts).vector))
    return dloss, dgrad


def _recorded(objective, seen):
    """An ``OBJECTIVES`` entry whose loss and gradient append their values to seen."""
    z_mode, grad, loss = trainer.OBJECTIVES[objective]

    def recorded_grad(params, counts, cfg, out=None):
        result = grad(params, counts, cfg, out)
        seen.append(result.vector.copy())
        return result

    def recorded_loss(params, counts, cfg):
        seen.append(loss(params, counts, cfg))
        return seen[-1]

    return z_mode, recorded_grad, recorded_loss


@pytest.mark.parametrize("vocab_size,force_k,stacks", [(8, None, 1), (5, 3, 1), (64, None, 2)])
def test_stacked_equiv_check_gives_the_per_draw_loops_gaps(monkeypatch, vocab_size, force_k, stacks):
    # The 20 draws go through each kernel as one stack at |V| 8 and 5, and
    # as stacks of 15 and 5 at |V| 64. Each draw's |dloss| and max |dgrad|
    # are bitwise the per-draw loop's, and so are the report's maxima.
    seen = {objective: [] for objective in (trainer.OBJ_NCE, trainer.OBJ_NS)}
    for objective, values in seen.items():
        monkeypatch.setitem(trainer.OBJECTIVES, objective, _recorded(objective, values))
    res = run_equiv_check(vocab_size=vocab_size, seed=3, force_k=force_k)
    nce_seen, ns_seen = seen.values()
    # Per stack: its two losses, then its two gradients.
    assert len(nce_seen) == len(ns_seen) == 2 * stacks
    dloss = np.concatenate([np.abs(a - b) for a, b in zip(nce_seen[::2], ns_seen[::2])])
    dgrad = np.concatenate([np.abs(a - b).max(axis=-1) for a, b in zip(nce_seen[1::2], ns_seen[1::2])])
    want = _per_draw_gaps(vocab_size, 3, force_k or vocab_size, checks.EQUIV_DRAWS)
    assert dloss.tobytes() == want[0].tobytes() and dgrad.tobytes() == want[1].tobytes()
    assert res.lines[1:3] == [f"max |dloss| {want[0].max():.3e}", f"max |dgrad| {want[1].max():.3e}"]


def test_equiv_check_holds_one_large_draw_at_a_time(monkeypatch):
    # At |V| = 1,024 one draw's grid is past EQUIV_BLOCK_CELLS, so the draws
    # go through the kernels one at a time, and the check's tracemalloc peak
    # is no more than the per-draw loop's. Three draws show a draw held over.
    monkeypatch.setattr(checks, "EQUIV_DRAWS", 3)
    sizes = []
    draws = checks._draws
    monkeypatch.setattr(checks, "_draws",
                        lambda seed, rows, *rest: sizes.append(len(rows)) or draws(seed, rows, *rest))
    peaks = []
    for run in (lambda: _per_draw_gaps(1024, 1, 1024, 3), lambda: run_equiv_check(vocab_size=1024)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sizes == [1, 1, 1]
    assert peaks[1] <= peaks[0]
