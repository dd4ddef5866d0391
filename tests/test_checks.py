import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts
from finite_diff_reference import finite_diff_reference
from ncelm import checks, cli, nce, negsampling, noise, trainer
from ncelm.checks import (
    finite_diff_gradient,
    run_equiv_check,
    run_gradcheck,
)
from ncelm.model import Z_LEARNED_ZC, CellCounts, init_params
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
    # Each finite-difference gradient of `gradcheck --which all` (every suite
    # and z_mode) is bitwise the one the per-coordinate loop computes. A model
    # has 125 coordinates, and a stack of 2^14 cells holds 52 of them.
    compared = []

    def both(loss_fn, params):
        stacks = []

        def loss(p):
            stacks.append(p.vector.shape)
            return loss_fn(p)

        got = finite_diff_gradient(loss, params)
        want = finite_diff_reference(loss_fn, params)
        compared.append((got.vector.tobytes() == want.vector.tobytes(), stacks))
        return got

    monkeypatch.setattr(checks, "finite_diff_gradient", both)
    assert run_gradcheck(which="all", seed=5).ok
    stacks = [(104, 125), (104, 125), (42, 125)]
    assert compared == [(True, stacks)] * (6 * checks._GC_MODELS)


def test_finite_diff_equals_the_coordinate_loop_across_chunks(monkeypatch):
    # At |V| = 64 a stack of 2^16 cells holds 7 coordinates, so the 645
    # coordinates take 93 loss calls, the last of them on a single coordinate.
    monkeypatch.setattr(checks, "FD_BLOCK_CELLS", 2**16)
    params = init_params(64, 4, seed=8, z_mode=Z_LEARNED_ZC)
    params.log_zc[:] = derive_rng(8, STREAM_DATA).normal(0.0, 0.5, params.n_contexts)
    counts = checks._sampled_counts(derive_rng(9, STREAM_DATA), 300, 64, 2)
    cfg = nce.NceConfig(k=2, q=uniform(64))
    calls = []

    def loss(p):
        calls.append(p.vector.shape)
        return nce.mc_loss(p, counts, cfg)

    got = finite_diff_gradient(loss, params)
    assert len(calls) == 93 and calls[0] == (14, 645) and calls[-1] == (2, 645)
    want = finite_diff_reference(loss, params)
    assert got.vector.tobytes() == want.vector.tobytes()


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
        grad.target_emb[0, 0] = np.nan
        return grad

    monkeypatch.setattr(trainer, "grad_log_likelihood", nan_at_first_coordinate)
    res = run_gradcheck(which="mle")
    assert not res.ok
    assert res.lines[0].startswith("gradcheck mle target_emb worst_err nan FAIL at target_emb")
    assert cli.main(["gradcheck", "--which", "mle"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck FAIL (tolerance 1e-05)"


def test_gradcheck_keeps_a_nan_that_later_finite_models_follow(monkeypatch, capsys):
    # Only the first of the five mle models gets a NaN coordinate; the four
    # finite models after it must not clear it.
    exact = trainer.grad_log_likelihood
    calls = []

    def nan_in_first_model(params, counts, out=None):
        grad = exact(params, counts, out)
        if not calls:
            grad.bias[3] = np.nan
        calls.append(None)
        return grad

    monkeypatch.setattr(trainer, "grad_log_likelihood", nan_in_first_model)
    res = run_gradcheck(which="mle")
    assert len(calls) == checks._GC_MODELS and not res.ok
    assert res.lines[2] == "gradcheck mle bias worst_err nan FAIL at bias[3]"
    calls.clear()
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
        out.context_emb[2, 1] = np.nan
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
    """Reference counts of the batch the checks draw: contexts, then true
    words, then k * n_c uniform noise words for each context c, drawn as
    counts by one ``noise.sample_array`` call per context in context order,
    on the path the trainer takes for a step of n_pairs pairs."""
    contexts = rng.integers(0, n_words + 1, n_pairs)
    words = rng.integers(0, n_words, n_pairs)
    batch = ProxyBatch(contexts, words, np.empty((n_pairs, 0), dtype=np.int64))
    true = cell_counts(batch, n_words + 1, n_words).true
    q = np.full(n_words, 1.0 / n_words)
    table = noise.alias_table(q) if noise.draws_words(k, n_pairs, n_words) else None
    drawn = np.stack([noise.sample_array(q, k * int(row.sum()), rng, table) for row in true])
    return CellCounts(true, drawn)


def _assert_same_counts(seen, want):
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        assert np.array_equal(got.true, ref.true)
        assert np.array_equal(got.noise, ref.noise)


@pytest.mark.parametrize("suite", ["ns", "nce-mc"])
def test_gradcheck_counts_match_reference_batches(monkeypatch, suite):
    assert checks._GC_K > 1
    module, name = (negsampling, "ns_grad") if suite == "ns" else (nce, "mc_grad")
    seen = _record_counts(monkeypatch, module, name)
    assert run_gradcheck(which=suite, seed=2).ok
    want = []
    # nce-mc runs learned_zc, then fixed_one; a learned log_zc is drawn first.
    for learned in ((True, False) if suite == "nce-mc" else (False,)):
        for i in range(checks._GC_MODELS):
            rng = derive_rng(2, STREAM_DATA, i)
            if learned:
                rng.normal(0.0, 0.5, checks._GC_VOCAB + 1)
            want.append(_reference_counts(rng, checks._GC_PAIRS, checks._GC_VOCAB, checks._GC_K))
    _assert_same_counts(seen, want)


@pytest.mark.parametrize("vocab_size,force_k", [(6, None), (5, 3)])
def test_equiv_check_counts_match_reference_batches(monkeypatch, vocab_size, force_k):
    seen = _record_counts(monkeypatch, negsampling, "ns_grad")
    run_equiv_check(vocab_size=vocab_size, seed=4, force_k=force_k)
    k = force_k or vocab_size
    # Each draw is a batch of 30 pairs.
    want = [_reference_counts(derive_rng(4, STREAM_DATA, i), 30, vocab_size, k)
            for i in range(checks.EQUIV_DRAWS)]
    _assert_same_counts(seen, want)
