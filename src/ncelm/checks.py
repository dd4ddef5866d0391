"""Self-contained verification suites: finite differences and NS/NCE agreement.

Both checks ship in the library (and are exposed as CLI commands) so the
core derivative and equivalence claims can be demonstrated from an installed
build, not only from the test tree. Each returns a small result object with
a preformatted report; callers decide how to surface it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .noise import alias_table, draws_words, sample_array, uniform
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
    """Central-difference gradient of loss_fn over every parameter block.

    loss_fn maps a stack of models, ``params.with_vector`` of (R, P)
    +-``FD_STEP`` copies of the vector, to its R values and must not mutate
    ``params``.
    """
    grad = zero_gradient(params)
    vec = params.vector
    chunk = max(1, FD_BLOCK_CELLS // (2 * params.n_contexts * params.n_words))
    for start in range(0, vec.size, chunk):
        coords = np.arange(start, min(start + chunk, vec.size))
        stack = np.tile(vec, (2, coords.size, 1))
        stack[:, range(coords.size), coords] = vec[coords] + np.array([[FD_STEP], [-FD_STEP]])
        hi, lo = np.reshape(loss_fn(params.with_vector(stack.reshape(-1, vec.size))), (2, -1))
        grad.vector[coords] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def _block_errors(analytic: Gradient, fd: Gradient) -> dict[str, tuple[float, tuple]]:
    """Worst error per block as (error, coordinate index).

    Error is |analytic - fd| / max(1, |analytic| + |fd|): relative for large
    coordinates, absolute near zero, so flat directions cannot inflate it.
    """
    worst = {}
    for name in PARAM_BLOCKS:
        a = getattr(analytic, name)
        f = getattr(fd, name)
        err = np.abs(a - f) / np.maximum(1.0, np.abs(a) + np.abs(f))
        flat = int(np.argmax(err))
        worst[name] = (float(err.flat[flat]), tuple(map(int, np.unravel_index(flat, err.shape))))
    return worst


def run_gradcheck(which: str = "all", seed: int = 0, corrupt: bool = False) -> CheckResult:
    """Finite-difference check of every analytic gradient implementation.

    which selects one of ``GRADCHECK_SUITES`` or "all". Each suite runs 5
    random models; sampled-objective suites cover both normalizer
    treatments. The corrupt flag deliberately damages one analytic
    coordinate, as a negative control that the comparison can fail.
    """
    if which != "all" and which not in GRADCHECK_SUITES:
        raise ValueError(f"unknown gradcheck suite {which!r}")
    suites = GRADCHECK_SUITES if which == "all" else (which,)
    result = CheckResult(ok=True)
    for label in suites:
        for z_mode in _SUITES[label][0]:
            worst = {name: (0.0, ()) for name in PARAM_BLOCKS}
            for i in range(_GC_MODELS):
                analytic, fd = _one_gradcheck(label, z_mode, seed, i)
                if corrupt:
                    analytic.target_emb[0, 0] += 1.0
                for name, (err, ix) in _block_errors(analytic, fd).items():
                    if not (err <= worst[name][0] or math.isnan(worst[name][0])):
                        worst[name] = (err, ix)
            tag = label if z_mode is None else f"{label}/{z_mode}"
            for name in PARAM_BLOCKS:
                err, ix = worst[name]
                line = f"gradcheck {tag} {name} worst_err {err:.3e}"
                if not err <= GRADCHECK_TOL:  # a NaN error fails too
                    line += f" FAIL at {name}{list(ix)}"
                    result.ok = False
                result.lines.append(line)
    result.lines.append(
        "gradcheck PASS" if result.ok else f"gradcheck FAIL (tolerance {GRADCHECK_TOL:g})"
    )
    return result


def _sampled_counts(rng, n_pairs: int, n_words: int, k: int) -> CellCounts:
    """Cell counts of a random sampled batch: n_pairs uniform (context, word)
    pairs, the sentence-start context included, and for each context c
    k * n_c noise words from uniform q, drawn as counts the way the trainer
    draws a step of n_pairs pairs. The kernels get float64 counts, cast
    once here as the trainer casts its own."""
    contexts = rng.integers(0, n_words + 1, n_pairs)
    words = rng.integers(0, n_words, n_pairs)
    true = pair_count_matrix(np.stack([contexts, words], axis=1), n_words)
    q = uniform(n_words)
    table = alias_table(q) if draws_words(k, n_pairs, n_words) else None
    noise = sample_array(q, k * true.sum(axis=1), rng, table)
    return CellCounts(true.astype(np.float64), noise.astype(np.float64))


def _one_gradcheck(label, z_mode, seed, i):
    """(analytic, finite-difference) gradients of suite ``label`` on model i,
    with one batch counted outside the finite-difference closure."""
    rng = derive_rng(seed, STREAM_DATA, i)
    params = init_params(_GC_VOCAB, _GC_DIM, seed + i, z_mode=z_mode or Z_EXACT)
    if z_mode == Z_LEARNED_ZC:
        params.log_zc[:] = rng.normal(0.0, 0.5, params.n_contexts)
    counts = _sampled_counts(rng, _GC_PAIRS, _GC_VOCAB, _GC_K)
    cfg = nce.NceConfig(k=_GC_K, q=uniform(_GC_VOCAB))
    _, grad, loss = _SUITES[label]
    return grad(params, counts, cfg), finite_diff_gradient(lambda p: loss(p, counts, cfg), params)


def run_equiv_check(vocab_size: int = 8, seed: int = 1, force_k: int | None = None) -> CheckResult:
    """Agreement of NS with NCE at k = |V| under uniform noise.

    NS is NCE's two-class objective on the raw score grid, so on
    ``EQUIV_DRAWS`` random (model, batch) draws this compares NCE's logit
    grid at k * q(w) = 1 against the score grid, through the losses and full
    gradient vectors of both entry points; the shared sigmoid and residual
    math is checked against references in the test suite. force_k overrides
    k away from |V|, as a negative control: the identity needs k * q(w) = 1
    exactly.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    k = vocab_size if force_k is None else force_k
    cfg = nce.NceConfig(k=k, q=uniform(vocab_size))
    _, nce_grad, nce_loss = OBJECTIVES[OBJ_NCE]
    z_mode, ns_grad, ns_loss = OBJECTIVES[OBJ_NS]
    dloss, dgrad = np.empty((2, EQUIV_DRAWS))
    for i in range(EQUIV_DRAWS):
        rng = derive_rng(seed, STREAM_DATA, i)
        params = init_params(vocab_size, 4, seed + i, z_mode=z_mode)
        counts = _sampled_counts(rng, 30, vocab_size, k)
        dloss[i] = abs(nce_loss(params, counts, cfg) - ns_loss(params, counts, cfg))
        dgrad[i] = np.max(
            np.abs(nce_grad(params, counts, cfg).vector - ns_grad(params, counts, cfg).vector)
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
