"""Differential tests of the count-matrix kernels against per-pair references.

The sampled objectives are computed on per-cell counts with one shared
residual-to-gradient kernel. Finite differences cannot catch an error that
the loss and its gradient share, so here each kernel, run on the cell counts
of a reference batch, is compared with a reference written pair by pair from
the scalar score ``target_emb[w] . context_emb[c] + bias[w]``.
"""

import math

import numpy as np
import pytest

from batch_reference import ProxyBatch, cell_counts, score
from ncelm import nce
from ncelm.corpus import pair_count_matrix
from ncelm.model import (
    PARAM_BLOCKS,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    CellCounts,
    apply_gradient,
    grad_log_likelihood,
    init_params,
    log_likelihood,
    params_finite,
    residual_gradient,
    score_matrix,
    zero_gradient,
)
from ncelm.nce import (
    NceConfig,
    classifier_logits,
    exact_grad_analysis,
    exact_loss,
    mc_grad,
    mc_loss,
)
from ncelm.negsampling import ns_grad, ns_loss
from ncelm.noise import flattened, uniform, unigram
from ncelm.seeding import STREAM_DATA, derive_rng

V = 6
BOS = V  # context id of <s>
REL = 1e-12


def _log_sigmoid(x):
    return -float(np.logaddexp(0.0, -x))


def _delta(params, c, w, cfg):
    d = score(params, c, w) - math.log(cfg.k * cfg.q[w])
    if params.z_mode == Z_LEARNED_ZC:
        d -= params.log_zc[c]
    return d


def _samples(batch):
    """(context, word, is_true) for every true and noise sample of the batch."""
    for i in range(batch.n_examples):
        c = int(batch.contexts[i])
        yield c, int(batch.true_words[i]), True
        for w in batch.noise_words[i]:
            yield c, int(w), False


def _reference(params, batch, logit, learned_zc):
    """Loss and gradient summed pair by pair from a scalar logit function.

    Each sample contributes log sigma(+-logit) and pushes its logit with
    coefficient sigma(-logit) (true) or -sigma(logit) (noise).
    """
    loss = 0.0
    grad = {name: np.zeros_like(getattr(params, name)) for name in PARAM_BLOCKS}
    for c, w, is_true in _samples(batch):
        d = logit(c, w)
        if is_true:
            loss += _log_sigmoid(d)
            coef = math.exp(_log_sigmoid(-d))
        else:
            loss += _log_sigmoid(-d)
            coef = -math.exp(_log_sigmoid(d))
        grad["target_emb"][w] += coef * params.context_emb[c]
        grad["context_emb"][c] += coef * params.target_emb[w]
        grad["bias"][w] += coef
        if learned_zc:
            grad["log_zc"][c] -= coef
    return loss, grad


def _setup(k, z_mode, seed, extreme=False):
    rng = derive_rng(seed, STREAM_DATA)
    params = init_params(V, 3, seed=seed, z_mode=z_mode)
    params.target_emb[:] = rng.normal(0, 1, params.target_emb.shape)
    params.context_emb[:] = rng.normal(0, 1, params.context_emb.shape)
    params.bias[:] = rng.normal(0, 0.5, V)
    if z_mode == Z_LEARNED_ZC:
        params.log_zc[:] = rng.normal(0, 0.5, V + 1)
    if extreme:
        # Word 0 saturates at a score near +800 and word 1 near -800.
        params.bias[0], params.bias[1] = 800.0, -800.0
    n = 30
    contexts = rng.integers(0, V + 1, n)
    true_words = rng.integers(0, V, n)
    # Repeated cells, <s> as a context, and words 0 and 1 as true and noise words.
    contexts[:6] = [2, 2, 2, BOS, BOS, 4]
    true_words[:6] = [3, 3, 3, 0, 1, 0]
    noise = rng.integers(0, V, (n, k))
    noise[:3, 0] = 3  # noise samples that share a cell with true samples
    noise[3, 0] = 1
    noise[4, -1] = 0
    batch = ProxyBatch(contexts=contexts, true_words=true_words, noise_words=noise)
    q = unigram(pair_count_matrix(np.stack([contexts, true_words], axis=1), V))
    return params, batch, q


def _assert_close(got, want):
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= REL * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("extreme", [False, True])
@pytest.mark.parametrize("k", [1, 5, 50])
@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
def test_nce_kernels_match_per_pair_reference(k, z_mode, extreme):
    params, batch, q = _setup(k, z_mode, seed=k, extreme=extreme)
    cfg = NceConfig(k=k, q=q)
    loss, grad = _reference(
        params, batch, lambda c, w: _delta(params, c, w, cfg), z_mode == Z_LEARNED_ZC
    )
    counts = cell_counts(batch, V + 1, V)
    got_loss = mc_loss(params, counts, cfg)
    assert math.isfinite(got_loss)
    assert got_loss == pytest.approx(loss, rel=REL)
    got = mc_grad(params, counts, cfg)
    for name in PARAM_BLOCKS:
        _assert_close(getattr(got, name), grad[name])


@pytest.mark.parametrize("extreme", [False, True])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_ns_kernels_match_per_pair_reference(k, extreme):
    params, batch, _ = _setup(k, Z_FIXED_ONE, seed=10 + k, extreme=extreme)
    loss, grad = _reference(params, batch, lambda c, w: score(params, c, w), False)
    counts = cell_counts(batch, V + 1, V)
    got_loss = ns_loss(params, counts)
    assert math.isfinite(got_loss)
    assert got_loss == pytest.approx(loss, rel=REL)
    got = ns_grad(params, counts)
    for name in PARAM_BLOCKS:
        _assert_close(getattr(got, name), grad[name])


@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
def test_classifier_logits_match_scalar_delta(z_mode):
    params, batch, q = _setup(5, z_mode, seed=20, extreme=True)
    cfg = NceConfig(k=5, q=q)
    flat = classifier_logits(params, batch.contexts, batch.true_words, cfg)
    grid = classifier_logits(params, batch.contexts, batch.noise_words, cfg)
    assert flat.shape == (batch.n_examples,)
    assert grid.shape == batch.noise_words.shape
    for i in range(batch.n_examples):
        c = int(batch.contexts[i])
        assert flat[i] == pytest.approx(_delta(params, c, int(batch.true_words[i]), cfg), rel=REL)
        for j, w in enumerate(batch.noise_words[i]):
            assert grid[i, j] == pytest.approx(_delta(params, c, int(w), cfg), rel=REL)


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
def test_kernels_on_cell_counts_equal_the_batch_bitwise(k, z_mode):
    # The kernels see a batch only through its count values: the reference's
    # integer counts and float copies of corpus.pair_count_matrix of the
    # batch's true pairs and (context, noise word) pairs give the same bits.
    params, batch, q = _setup(k, z_mode, seed=30 + k, extreme=True)
    cfg = NceConfig(k=k, q=q)
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    pairs = np.stack([batch.contexts, batch.true_words], axis=1)
    noise_pairs = np.stack(np.broadcast_arrays(batch.contexts[:, None], batch.noise_words), axis=-1)
    floats = CellCounts(
        pair_count_matrix(pairs, V).astype(np.float64),
        pair_count_matrix(noise_pairs.reshape(-1, 2), V).astype(np.float64),
    )
    assert mc_loss(params, floats, cfg) == mc_loss(params, counts, cfg)
    assert ns_loss(params, floats) == ns_loss(params, counts)
    mle_params = init_params(V, 3, seed=k, z_mode=Z_EXACT)
    for got, want in (
        (mc_grad(params, floats, cfg), mc_grad(params, counts, cfg)),
        (ns_grad(params, floats), ns_grad(params, counts)),
        (grad_log_likelihood(mle_params, floats), grad_log_likelihood(mle_params, counts)),
    ):
        assert got.vector.tobytes() == want.vector.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("n_models", [0, 3])
def test_grad_log_likelihood_equals_softmax_then_residual_bitwise(n_models, dtype):
    # The exact gradient forms n_c p(w | c) in place; it gives the bits of the
    # max-shifted softmax of the score grid, divided by its row sums, then
    # the residual counts - n_c * probs, for one model (n_models 0) and for a
    # stack with one count grid per model.
    params, batch, _ = _setup(5, Z_EXACT, seed=90)
    counts = pair_count_matrix(np.stack([batch.contexts, batch.true_words], axis=1), V).astype(dtype)
    if n_models:
        noise = derive_rng(91, STREAM_DATA).normal(0.0, 0.1, (n_models, params.vector.size))
        params = params.with_vector(params.vector + noise)
        counts = np.stack([np.roll(counts, r, axis=-1) for r in range(n_models)])
    scores = score_matrix(params)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    want = residual_gradient(params, counts - counts.sum(axis=-1, keepdims=True) * probs, Z_EXACT)
    assert grad_log_likelihood(params, CellCounts(counts, None)).vector.tobytes() == want.vector.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("layout", ["one model", "stack", "shared grid"])
def test_grad_log_likelihood_on_block_totals_equals_derived_totals_bitwise(layout, dtype):
    # The exact gradient reads n_c from counts.context_totals. A step's view
    # of totals set once for a block of steps, as the trainer sets them from
    # its bincount, gives the bits of totals derived from the step's own
    # grid: for one model, for a stack with one grid per model and for a
    # stack sharing one grid.
    params, batch, _ = _setup(5, Z_EXACT, seed=93)
    grid = pair_count_matrix(np.stack([batch.contexts, batch.true_words], axis=1), V).astype(dtype)
    sel = 0
    if layout != "one model":
        noise = derive_rng(94, STREAM_DATA).normal(0.0, 0.1, (3, params.vector.size))
        params = params.with_vector(params.vector + noise)
    if layout == "stack":
        grid, sel = np.stack([np.roll(grid, r, axis=-1) for r in range(3)]), slice(None)
    # Two steps of one run (or of three), the second this step's grid.
    block = CellCounts(np.stack([np.ones_like(grid), grid])[:, None if sel == 0 else sel], None)
    block.context_totals = np.add.reduce(block.true, axis=-1, keepdims=True).astype(np.float64)
    _, step = block.unstack(sel)
    assert np.shares_memory(step.context_totals, block.context_totals)
    want = grad_log_likelihood(params, CellCounts(grid, None))
    assert grad_log_likelihood(params, step).vector.tobytes() == want.vector.tobytes()


def test_grad_log_likelihood_refuses_a_grid_without_pairs():
    # Checked once per count grid when its totals are derived: an all-zero
    # grid, alone, as one grid of a stack or shared by a stack, is refused.
    params, batch, _ = _setup(5, Z_EXACT, seed=93)
    grid = pair_count_matrix(np.stack([batch.contexts, batch.true_words], axis=1), V)
    zero = np.zeros_like(grid)
    stack = params.with_vector(np.stack([params.vector] * 3))
    for p, true in ((params, zero), (stack, np.stack([grid, zero, grid])), (stack, zero)):
        with pytest.raises(ValueError, match="^grad_log_likelihood needs at least one pair$"):
            grad_log_likelihood(p, CellCounts(true, None))


@pytest.mark.parametrize("k", [1, 5])
def test_nce_kernels_read_an_exact_model_as_fixed_one_bitwise(k):
    # z_c is a parameter of learned_zc models only: on an exact model the NCE
    # kernels neither subtract log_zc nor write its gradient, and give the
    # bits of the same vector as a fixed_one model.
    exact, batch, q = _setup(k, Z_EXACT, seed=60 + k, extreme=True)
    exact.log_zc[:] = derive_rng(60 + k, STREAM_DATA, 1).normal(0.0, 0.5, V + 1)
    fixed = exact.copy()
    fixed.z_mode = Z_FIXED_ONE
    cfg = NceConfig(k=k, q=q)
    counts = cell_counts(batch, V + 1, V)
    true = counts.true
    for kernel in (
        lambda p: classifier_logits(p, batch.contexts, batch.noise_words, cfg),
        lambda p: np.float64(mc_loss(p, counts, cfg)),
        lambda p: mc_grad(p, counts, cfg).vector,
        lambda p: np.float64(exact_loss(p, true, cfg)),
        lambda p: exact_grad_analysis(p, true, cfg).vector,
    ):
        assert kernel(exact).tobytes() == kernel(fixed).tobytes()
    assert not mc_grad(exact, counts, cfg).log_zc.any()


def test_cell_counts_with_wrong_noise_total_raise():
    params, batch, q = _setup(5, Z_FIXED_ONE, seed=40)
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    cfg = NceConfig(k=4, q=q)
    for kernel in (mc_loss, mc_grad):
        with pytest.raises(ValueError, match="k mismatch"):
            kernel(params, counts, cfg)


# Each exact function's result as bytes: the loss's hex digits or the
# gradient vector's bytes.
_EXACT_ORACLE = {
    "log_likelihood": lambda p, counts, cfg: float(log_likelihood(p, counts)).hex(),
    "grad_log_likelihood": lambda p, counts, cfg: grad_log_likelihood(p, CellCounts(counts, None)).vector.tobytes(),
    "exact_loss": lambda p, counts, cfg: float(exact_loss(p, counts, cfg)).hex(),
    "exact_grad_analysis": lambda p, counts, cfg: exact_grad_analysis(p, counts, cfg).vector.tobytes(),
}


@pytest.mark.parametrize("name", sorted(_EXACT_ORACLE))
def test_exact_oracle_takes_any_count_grid(name):
    # A corpus reaches the exact objectives only as its (context, word) count
    # grid: the int64 bigram counts and their float64 copy give the same
    # bits, and a grid without a pair is rejected.
    fn = _EXACT_ORACLE[name]
    params, batch, q = _setup(5, Z_LEARNED_ZC, seed=50, extreme=True)
    cfg = NceConfig(k=5, q=q)
    counts = pair_count_matrix(np.stack([batch.contexts, batch.true_words], axis=1), V)
    assert counts.dtype == np.int64
    assert fn(params, counts.astype(np.float64), cfg) == fn(params, counts, cfg)
    with pytest.raises(ValueError, match="at least one pair"):
        fn(params, np.zeros_like(counts), cfg)


# Each loss on the counts of a batch; the exact losses read its true counts.
_LOSSES = {
    "log_likelihood": lambda p, counts, cfg: log_likelihood(p, counts.true),
    "exact_loss": lambda p, counts, cfg: exact_loss(p, counts.true, cfg),
    "mc_loss": lambda p, counts, cfg: mc_loss(p, counts, cfg),
    "ns_loss": lambda p, counts, cfg: ns_loss(p, counts),
}


@pytest.mark.parametrize("n_models", [1, 7, 250])
@pytest.mark.parametrize(
    "name,z_mode",
    [
        ("log_likelihood", Z_EXACT),
        ("exact_loss", Z_LEARNED_ZC),
        ("exact_loss", Z_FIXED_ONE),
        ("mc_loss", Z_LEARNED_ZC),
        ("mc_loss", Z_FIXED_ONE),
        ("ns_loss", Z_FIXED_ONE),
    ],
)
def test_stacked_losses_equal_single_model_calls_bitwise(name, z_mode, n_models):
    # A stack of perturbed parameter vectors, (R, P), gives in one call the R
    # values of R single-model calls, to the bit.
    loss = _LOSSES[name]
    params, batch, q = _setup(5, z_mode, seed=60, extreme=True)
    cfg = NceConfig(k=5, q=q)
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    rng = derive_rng(n_models, STREAM_DATA)
    stack = params.vector + rng.normal(0.0, 0.1, (n_models, params.vector.size))
    got = loss(params.with_vector(stack), counts, cfg)
    want = [loss(params.with_vector(row.copy()), counts, cfg) for row in stack]
    assert got.shape == (n_models,)
    assert np.array_equal(got, want)


_GRADS = {
    "grad_log_likelihood": lambda p, counts, cfg, out=None: grad_log_likelihood(p, counts, out),
    "mc_grad": lambda p, counts, cfg, out=None: mc_grad(p, counts, cfg, out),
    "ns_grad": lambda p, counts, cfg, out=None: ns_grad(p, counts, out),
}


@pytest.mark.parametrize("n_models", [1, 5])
@pytest.mark.parametrize(
    "name,z_mode",
    [("grad_log_likelihood", Z_EXACT), ("mc_grad", Z_LEARNED_ZC), ("mc_grad", Z_FIXED_ONE),
     ("ns_grad", Z_FIXED_ONE)],
)
def test_stacked_gradient_and_step_equal_single_model_calls_bitwise(name, z_mode, n_models):
    # R models, each with its own float64 counts, k and q, in one call per
    # kernel: the gradient (twice into one reused buffer), the step with one
    # lr per model and the finiteness flags give the R single-model results.
    grad = _GRADS[name]
    runs = []
    for r in range(n_models):
        k = 1 + 2 * r
        params, batch, q = _setup(k, z_mode, seed=80 + r, extreme=True)
        counts = cell_counts(batch, params.n_contexts, params.n_words)
        counts = CellCounts(*(c.astype(np.float64) for c in counts))
        cfg = NceConfig(k=k, q=q)
        runs.append((params, counts, cfg))
    stack = runs[0][0].with_vector(np.stack([params.vector for params, _, _ in runs]))
    counts = CellCounts(*(np.stack(c) for c in zip(*(counts for _, counts, _ in runs))))
    cfg = NceConfig.stack([cfg for _, _, cfg in runs])
    out = zero_gradient(stack)
    for _ in range(2):
        assert grad(stack, counts, cfg, out) is out
        want = [grad(params, counts, cfg).vector for params, counts, cfg in runs]
        assert out.vector.tobytes() == np.stack(want).tobytes()
    lrs = np.linspace(0.1, 0.5, n_models)
    apply_gradient(stack, out, lrs)
    for (params, counts, cfg), lr in zip(runs, lrs):
        apply_gradient(params, grad(params, counts, cfg), lr)
    assert stack.vector.tobytes() == np.stack([params.vector for params, _, _ in runs]).tobytes()
    assert params_finite(stack) is True
    stack.bias[-1, 0] = np.nan
    assert params_finite(stack) is False


# Each gradient on one batch; the exact ones read its true counts. The
# losses on one shared grid are test_stacked_losses_equal_single_model_calls_bitwise.
_SHARED_GRID_GRADS = {
    "grad_log_likelihood": lambda p, counts, cfg: grad_log_likelihood(p, counts),
    "mc_grad": lambda p, counts, cfg: mc_grad(p, counts, cfg),
    "ns_grad": lambda p, counts, cfg: ns_grad(p, counts),
    "exact_grad_analysis": lambda p, counts, cfg: exact_grad_analysis(p, counts.true, cfg),
}


@pytest.mark.parametrize("n_models", [1, 3])
@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
@pytest.mark.parametrize("name", sorted(_SHARED_GRID_GRADS))
def test_stacked_gradients_on_one_shared_count_grid_equal_single_model_calls_bitwise(name, z_mode, n_models):
    # A stack of R models, (R, P), over one (n_contexts, n_words) count grid
    # for all of them gives the R single-model gradients, to the bit.
    grad = _SHARED_GRID_GRADS[name]
    params, batch, q = _setup(5, z_mode, seed=42, extreme=True)
    cfg = NceConfig(k=5, q=q)
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    rng = derive_rng(100 + n_models, STREAM_DATA)
    stack = params.vector + rng.normal(0.0, 0.1, (n_models, params.vector.size))
    got = grad(params.with_vector(stack), counts, cfg).vector
    want = [grad(params.with_vector(row.copy()), counts, cfg).vector for row in stack]
    assert got.tobytes() == np.stack(want).tobytes()


def test_stacked_k_check_names_the_model():
    params, batch, q = _setup(3, Z_FIXED_ONE, seed=41)
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    stack = params.with_vector(np.stack([params.vector] * 3))
    stacked = CellCounts(*(np.stack([c] * 3) for c in counts))
    ks = [NceConfig(k=k, q=q) for k in (3, 3, 4)]
    want = "k mismatch: model 2: counts hold 90 noise samples for 30 true samples, config says k=4"
    with pytest.raises(ValueError, match=want):
        mc_grad(stack, stacked, NceConfig.stack(ks))
    mc_grad(stack, stacked, NceConfig.stack([ks[0]] * 3))
    # Float64 counts of seven and more digits are named exactly.
    big = CellCounts(counts.true * 41_153, counts.noise * 41_153)
    big.noise[0, 0] += 1
    want = "counts hold 3703771 noise samples for 1234590 true samples, config says k=3"
    with pytest.raises(ValueError, match=f"^k mismatch: {want}$"):
        mc_grad(params, big, ks[0])



_STACK_KERNELS = {
    "exact_loss": lambda p, counts, cfg: exact_loss(p, counts.true, cfg),
    "exact_grad_analysis": lambda p, counts, cfg: exact_grad_analysis(p, counts.true, cfg).vector,
    "mc_loss": mc_loss,
    "mc_grad": lambda p, counts, cfg: mc_grad(p, counts, cfg).vector,
}


@pytest.mark.parametrize("shared_grid", [False, True])
@pytest.mark.parametrize("z_mode", [Z_LEARNED_ZC, Z_FIXED_ONE])
@pytest.mark.parametrize("name", sorted(_STACK_KERNELS))
def test_nce_on_a_stack_of_mixed_configs_equals_per_config_calls_bitwise(name, z_mode, shared_grid):
    # Three models under one stacked NceConfig of mixed k and q (uniform,
    # skewed and flattened) give each model's single-config bits, on one
    # count grid per model and on one grid all of them share. A shared grid
    # holds one k's noise samples, so there the Monte Carlo kernels take
    # that k for every model; the exact ones keep each model's own.
    kernel = _STACK_KERNELS[name]
    runs = []
    for r, k in enumerate((1, 4, 9)):
        params, batch, _ = _setup(k, z_mode, seed=120 + r, extreme=True)
        stats = pair_count_matrix(np.stack([batch.contexts, batch.true_words], axis=1), V)
        q = (uniform(V), unigram(stats), flattened(stats, 0.5))[r]
        runs.append([params, cell_counts(batch, params.n_contexts, params.n_words), NceConfig(k, q)])
    if shared_grid:
        counts = runs[0][1]
        for run in runs:
            run[1] = counts
            if name.startswith("mc_"):
                run[2] = NceConfig(runs[0][2].k, run[2].q)
    else:
        counts = CellCounts(*(np.stack(c) for c in zip(*(counts for _, counts, _ in runs))))
    stack = runs[0][0].with_vector(np.stack([params.vector for params, _, _ in runs]))
    got = kernel(stack, counts, NceConfig.stack([cfg for _, _, cfg in runs]))
    want = [kernel(params, counts, cfg) for params, counts, cfg in runs]
    assert got.tobytes() == np.stack(want).tobytes()


# The two-class pass that NCE and NS share: log-sigmoids from one
# exp(-|Delta|) and the residual T - (T+N) sigma(Delta) from one
# tanh(Delta/2), differential-tested against two references kept here, the
# logaddexp forms and the branching one-exp residual the tanh form replaced.
# Delta covers zero, +-1e-300, +-36.7 (exp(-|Delta|) below the float64
# epsilon), +-745 (a subnormal exp(-|Delta|)), +-800 (it underflows to 0),
# infinities and random values. pytest turns any RuntimeWarning into an error.


def _one_exp_residual(delta, counts):
    """``T sigma(-Delta) - N sigma(Delta)`` from e = exp(-|Delta|): (T e - N)/(1+e)
    where Delta >= 0, else (T - N e)/(1+e)."""
    true, noise = counts
    e = np.exp(-np.abs(delta))
    return np.where(delta >= 0.0, true * e - noise, true - noise * e) / (1.0 + e)


def _residual_counts(delta, noise_scale):
    """Integer true counts and noise counts for ``delta``: integers for
    ``noise_scale`` 1, large fractional expected counts n_c k q(w) for 1e6."""
    rng = derive_rng(71, STREAM_DATA)
    true = rng.integers(0, 6, delta.shape).astype(np.float64)
    noise = np.round(rng.uniform(0.0, 60.0, delta.shape) * noise_scale, 3)
    return CellCounts(true, noise)


def _edge_deltas():
    edges = np.array([0.0, 1e-300, 36.7, 745.0, 800.0, np.inf])
    rng = derive_rng(70, STREAM_DATA)
    values = np.concatenate(
        [edges, -edges[1:], rng.normal(0.0, 10.0, 61), rng.uniform(-800.0, 800.0, 32)]
    )
    return values.reshape(8, 13)


def test_log_sigmoids_match_logaddexp_reference():
    delta = _edge_deltas()
    reference = (-np.logaddexp(0.0, -delta), -np.logaddexp(0.0, delta))
    for got, want in zip(nce._log_sigmoids(delta), reference):
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])  # -inf exactly where the reference has it
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-15 * np.abs(want[finite]))


@pytest.mark.parametrize("noise_scale", [1.0, 1e6])
def test_residual_matches_logaddexp_reference(noise_scale):
    # Integer true counts against integer sampled noise counts and against
    # large fractional expected noise counts n_c k q(w).
    delta = _edge_deltas()
    true, noise = _residual_counts(delta, noise_scale)
    want = true * np.exp(-np.logaddexp(0.0, delta)) - noise * np.exp(-np.logaddexp(0.0, -delta))
    got = nce._residual(delta, CellCounts(true, noise))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, true + noise))


@pytest.mark.parametrize("noise_scale", [1.0, 1e6])
def test_residual_matches_one_exp_reference(noise_scale):
    # The same bound against the branching one-exp residual, on the edge
    # deltas and on random deltas; the residual leaves its Delta argument
    # and its counts as they were.
    rng = derive_rng(73, STREAM_DATA)
    for delta in (_edge_deltas(), rng.normal(0.0, 20.0, (40, 13))):
        counts = _residual_counts(delta, noise_scale)
        before = [a.copy() for a in (delta, *counts)]
        got = nce._residual(delta, counts)
        assert all(np.array_equal(a, b) for a, b in zip((delta, *counts), before))
        assert not any(np.shares_memory(got, a) for a in (delta, *counts))
        assert np.all(np.isfinite(got))
        want = _one_exp_residual(delta, counts)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, counts.true + counts.noise))


@pytest.mark.parametrize("which", ["exact", "mc", "ns"])
def test_nan_delta_gives_nan_residual_and_gradient(which):
    # A NaN logit must reach each gradient that the shared residual feeds,
    # even in a cell with no samples.
    delta = np.array([[np.nan, np.nan, 0.5], [np.nan, 2.0, -3.0]])
    counts = CellCounts(
        np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    )
    got = nce._residual(delta, counts)
    assert np.all(np.isnan(got[np.isnan(delta)])) and np.all(np.isfinite(got[~np.isnan(delta)]))
    params, batch, q = _setup(5, Z_FIXED_ONE, seed=72)
    params.bias[2] = np.nan
    counts = cell_counts(batch, params.n_contexts, params.n_words)
    cfg = NceConfig(k=5, q=q)
    gradients = {
        "exact": lambda: exact_grad_analysis(params, counts.true, cfg),
        "mc": lambda: mc_grad(params, counts, cfg),
        "ns": lambda: ns_grad(params, counts),
    }
    assert not np.all(np.isfinite(gradients[which]().vector))
