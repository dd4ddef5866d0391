"""Self-contained verification suites: finite differences and NS/NCE agreement.

Both checks ship in the library (and are exposed as CLI commands) so the
core derivative and equivalence claims can be demonstrated from an installed
build, not only from the test tree. Each returns a small result object with
a preformatted report; callers decide how to surface it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import nce
from .corpus import pair_count_matrix
from .model import (
    PARAM_BLOCKS,
    Z_EXACT,
    Z_FIXED_ONE,
    Z_LEARNED_ZC,
    CellCounts,
    Gradient,
    ModelParams,
    init_params,
    zero_gradient,
)
from .noise import alias_table, count_alias_words, draws_words, sample_array, uniform
from .seeding import STREAM_DATA, derive_rng
from .trainer import OBJ_MLE, OBJ_NCE, OBJ_NS, OBJECTIVES

# The gates: finite-difference step, worst per-block error, NS-NCE gap and its draws.
FD_STEP = 1e-5
GRADCHECK_TOL = 1e-5
EQUIV_TOL = 1e-10
EQUIV_DRAWS = 20

# Fixed desk-scale geometry for the finite-difference suites.
_GC_VOCAB = 12
_GC_DIM = 4
_GC_K = 3
_GC_MODELS = 5
_GC_PAIRS = 40
FD_BLOCK_CELLS = 2**14  # grid cells, n_contexts * n_words per model, in one stack
EQUIV_BLOCK_CELLS = 2**16  # grid cells, n_contexts * n_words per draw, in one equiv-check stack

# Suite name -> (z_modes, gradient, loss), the kernels taking (params,
# counts, cfg); None runs the model's exact normalizer. The trained
# objectives' suites check the gradient and loss the trainer steps with,
# ``trainer.OBJECTIVES``. nce-exact reads only the true counts: it checks
# the analysis-form gradient against the full-expectation loss.
_SUITES = {
    "mle": ((None,), *OBJECTIVES[OBJ_MLE][1:]),
    "nce-mc": ((Z_LEARNED_ZC, Z_FIXED_ONE), *OBJECTIVES[OBJ_NCE][1:]),
    "nce-exact": ((Z_LEARNED_ZC, Z_FIXED_ONE),
                  lambda p, c, cfg: nce.exact_grad_analysis(p, c.true, cfg),
                  lambda p, c, cfg: nce.exact_loss(p, c.true, cfg)),
    "ns": ((None,), *OBJECTIVES[OBJ_NS][1:]),
}
GRADCHECK_SUITES = tuple(_SUITES)


@dataclass
class CheckResult:
    ok: bool
    lines: list[str] = field(default_factory=list)

    def report(self) -> str:
        return "\n".join(self.lines)


def finite_diff_gradient(loss_fn, params: ModelParams) -> Gradient:
    """Central-difference gradient of loss_fn over every parameter block, for
    one model or each model of a stack, params (..., P).

    Each call of loss_fn perturbs the same n coordinates of every model: it
    gets ``params.with_vector`` of a (2n, ..., P) stack, the +``FD_STEP``
    copies then the -``FD_STEP`` copies, at most ``FD_BLOCK_CELLS`` grid
    cells in all (at least one coordinate), and must map it to its (2n, ...)
    values without mutating ``params``.
    """
    grad = zero_gradient(params)
    size = params.vector.shape[-1]
    vec = params.vector.reshape(-1, size)  # (models, P)
    out = grad.vector.reshape(-1, size)
    chunk = max(1, FD_BLOCK_CELLS // (2 * len(vec) * params.n_contexts * params.n_words))
    for start in range(0, size, chunk):
        coords = np.arange(start, min(start + chunk, size))
        n = coords.size
        # Copy j of each sign moves coordinate coords[j] of every model, by
        # one broadcast add; x + -0.0 is x for every x, -0.0 and NaN included,
        # so every other entry is an exact copy.
        step = np.full((2, n, 1, size), -0.0)
        step[:, range(n), 0, coords] = [[FD_STEP], [-FD_STEP]]
        values = loss_fn(params.with_vector((vec + step).reshape(2 * n, *params.vector.shape)))
        hi, lo = np.reshape(values, (2, n, len(vec)))
        out[:, coords] = ((hi - lo) / (2.0 * FD_STEP)).T
    return grad


def _block_errors(analytic: Gradient, fd: Gradient) -> dict[str, tuple[float, tuple]]:
    """Worst error per block over every model of a stack, as (error, the
    coordinate's index within its model's block): the first NaN, else the
    first largest error in model order.

    Error is |analytic - fd| / max(1, |analytic| + |fd|): relative for large
    coordinates, absolute near zero, so flat directions cannot inflate it.
    """
    lead = analytic.vector.ndim - 1
    worst = {}
    for name in PARAM_BLOCKS:
        a = getattr(analytic, name)
        f = getattr(fd, name)
        err = np.abs(a - f) / np.maximum(1.0, np.abs(a) + np.abs(f))
        flat = int(np.argmax(err))  # a NaN is the maximum
        worst[name] = (float(err.flat[flat]), tuple(map(int, np.unravel_index(flat, err.shape)[lead:])))
    return worst


def run_gradcheck(which: str = "all", seed: int = 0, corrupt: bool = False) -> CheckResult:
    """Finite-difference check of every analytic gradient implementation.

    which selects one of ``GRADCHECK_SUITES`` or "all". Each suite runs 5
    random models as one stack, each with its own batch; sampled-objective
    suites cover both normalizer treatments. The corrupt flag deliberately damages one analytic
    coordinate, as a negative control that the comparison can fail.
    """
    if which != "all" and which not in GRADCHECK_SUITES:
        raise ValueError(f"unknown gradcheck suite {which!r}")
    suites = GRADCHECK_SUITES if which == "all" else (which,)
    cfg = nce.NceConfig(k=_GC_K, q=uniform(_GC_VOCAB))
    # The two fixtures, each drawn once: a learned_zc model draws its log_zc
    # before its batch, and exact and fixed_one models are the same vectors.
    fixture = cache(lambda learned: _draws(seed, range(_GC_MODELS), _GC_VOCAB, _GC_DIM,
                                           Z_LEARNED_ZC if learned else Z_EXACT, _GC_PAIRS, _GC_K))
    result = CheckResult(ok=True)
    for label in suites:
        z_modes, grad, loss = _SUITES[label]
        for z_mode in z_modes:
            drawn, counts = fixture(z_mode == Z_LEARNED_ZC)
            params = drawn.with_vector(drawn.vector)
            params.z_mode = z_mode or Z_EXACT
            analytic = grad(params, counts, cfg)
            if corrupt:
                analytic.target_emb[..., 0, 0] += 1.0
            fd = finite_diff_gradient(lambda p: loss(p, counts, cfg), params)
            tag = label if z_mode is None else f"{label}/{z_mode}"
            for name, (err, ix) in _block_errors(analytic, fd).items():
                line = f"gradcheck {tag} {name} worst_err {err:.3e}"
                if not err <= GRADCHECK_TOL:  # a NaN error fails too
                    line += f" FAIL at {name}{list(ix)}"
                    result.ok = False
                result.lines.append(line)
    result.lines.append(
        "gradcheck PASS" if result.ok else f"gradcheck FAIL (tolerance {GRADCHECK_TOL:g})"
    )
    return result


def _sampled_counts(rngs, n_pairs: int, n_words: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """True and noise int64 count grids, (R, n_words + 1, n_words), of one
    random batch per generator of ``rngs``: n_pairs uniform (context, word)
    pairs, the sentence-start context included, then k * n_c noise words
    from uniform q for each context c, drawn the way the trainer draws a
    step of n_pairs pairs. The stack is counted by whole-stack calls: one
    ``pair_count_matrix``, and on the word path one ``count_alias_words``
    over each generator's uniforms, drawn after its pairs; past
    ``draws_words`` each batch's noise is one multinomial per row."""
    pairs = np.empty((len(rngs), n_pairs, 2), dtype=np.int64)
    for pair, rng in zip(pairs, rngs):
        pair[:, 0] = rng.integers(0, n_words + 1, n_pairs)
        pair[:, 1] = rng.integers(0, n_words, n_pairs)
    true = pair_count_matrix(pairs, n_words)
    totals = k * true.sum(axis=-1)
    q = uniform(n_words)
    if not draws_words(k, n_pairs, n_words):
        return true, np.stack([sample_array(q, t, rng) for t, rng in zip(totals, rngs)])
    x = np.concatenate([rng.random(k * n_pairs) for rng in rngs])
    return true, count_alias_words(alias_table(q), totals, lambda words: x[words])


def _draws(seed: int, draws: range, n_words: int, dim: int, z_mode: str,
           n_pairs: int, k: int) -> tuple[ModelParams, CellCounts]:
    """Random (model, batch) draws as one stack, its counts one grid per
    model. Draw i is ``init_params(n_words, dim, seed + i, z_mode)`` and,
    from ``derive_rng(seed, STREAM_DATA, i)``, a learned_zc model's log_zc
    drawn N(0, 0.5^2), then its batch, the draws' batches counted together
    by :func:`_sampled_counts` once outside the finite-difference closures.
    The kernels get float64 counts, cast once as the trainer casts its own."""
    rngs = [derive_rng(seed, STREAM_DATA, i) for i in draws]
    models = [init_params(n_words, dim, seed + i, z_mode=z_mode) for i in draws]
    params = models[0].with_vector(np.stack([model.vector for model in models]))
    if z_mode == Z_LEARNED_ZC:
        for log_zc, rng in zip(params.log_zc, rngs):
            log_zc[:] = rng.normal(0.0, 0.5, params.n_contexts)
    counts = _sampled_counts(rngs, n_pairs, n_words, k)
    return params, CellCounts(*(c.astype(np.float64) for c in counts))


def run_equiv_check(vocab_size: int = 8, seed: int = 1, force_k: int | None = None) -> CheckResult:
    """Agreement of NS with NCE at k = |V| under uniform noise.

    NS is NCE's two-class objective on the raw score grid, so on
    ``EQUIV_DRAWS`` random (model, batch) draws this compares NCE's logit
    grid at k * q(w) = 1 against the score grid, through the losses and full
    gradient vectors of both entry points; the shared sigmoid and residual
    math is checked against references in the test suite. The draws go
    through the kernels as stacks of at most ``EQUIV_BLOCK_CELLS`` grid
    cells (at least one draw). force_k overrides k away from |V|, as a
    negative control: the identity needs k * q(w) = 1 exactly.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    k = vocab_size if force_k is None else force_k
    cfg = nce.NceConfig(k=k, q=uniform(vocab_size))
    _, nce_grad, nce_loss = OBJECTIVES[OBJ_NCE]
    z_mode, ns_grad, ns_loss = OBJECTIVES[OBJ_NS]

    def gaps(params, counts):
        """|dloss| and max |dgrad| of each draw of a stack."""
        dloss = np.abs(nce_loss(params, counts, cfg) - ns_loss(params, counts, cfg))
        dgrad = np.abs(nce_grad(params, counts, cfg).vector - ns_grad(params, counts, cfg).vector)
        return dloss, dgrad.max(axis=-1)

    per_stack = max(1, EQUIV_BLOCK_CELLS // ((vocab_size + 1) * vocab_size))
    stacks = [range(EQUIV_DRAWS)[i : i + per_stack] for i in range(0, EQUIV_DRAWS, per_stack)]
    # Each stack is drawn inside the comprehension, so its grids are freed
    # before the next one is drawn.
    dloss, dgrad = np.concatenate(
        [gaps(*_draws(seed, draws, vocab_size, 4, z_mode, 30, k)) for draws in stacks], axis=1
    )
    max_dloss, max_dgrad = dloss.max(), dgrad.max()  # unlike max(), these keep a NaN
    ok = bool(max_dloss <= EQUIV_TOL and max_dgrad <= EQUIV_TOL)  # a NaN fails
    lines = [
        f"equiv-check k={k} |V|={vocab_size} draws={EQUIV_DRAWS}",
        f"max |dloss| {max_dloss:.3e}",
        f"max |dgrad| {max_dgrad:.3e}",
        "equiv-check PASS" if ok else f"equiv-check FAIL (tolerance {EQUIV_TOL:g})",
    ]
    return CheckResult(ok=ok, lines=lines)
