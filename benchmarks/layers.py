"""Outside-in tracing of ncelm: spans around the public functions of each module.

Nothing inside ``src/ncelm`` knows about tracing. While a :class:`Tracer` is
active, every module attribute in the ``ncelm`` package that is bound to a
traced function is rebound to a timing wrapper, and the original binding is
restored on exit. Rebinding every name, not only the defining one, matters:
``trainer`` and ``cli`` import ``train``, ``apply_gradient``,
``params_finite`` and others by name, so patching only the defining module
would drop those spans without any error.

A span's self time is its duration minus the time covered by traced calls
made inside it. Counter hooks run after the span is closed, and their cost
is charged to neither the span nor its parent's self time; it shows up only
as tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Every traced function, as "<module>.<function>" under the ncelm package.
SPANS = (
    "seeding.derive_rng",
    "corpus.generate_synthetic_corpus",
    "corpus.generate_synthetic_stream",
    "corpus.read_corpus_tokens",
    "corpus.write_corpus_tokens",
    "corpus.pairs_from_tokens",
    "corpus.read_truth",
    "noise.sample_array",
    "model.grad_log_likelihood",
    "model.log_likelihood",
    "model.log_partitions",
    "model.apply_gradient",
    "model.params_finite",
    "model.save_model",
    "model.load_model",
    "nce.classifier_logits",
    "nce.mc_loss",
    "nce.mc_grad",
    "negsampling.ns_grad",
    "trainer.train",
    "trainer.kl_truth_model",
    "checks.finite_diff_gradient",
    "checks.run_gradcheck",
    "checks.run_equiv_check",
    "cli.main",
)

# Derived per-layer counters, beyond <span>.calls and <span>.self_ms.
OUT_MB = "noise.sample_array.out_mb"
GATHER_MB = "nce.classifier_logits.gather_mb"
CELL_RATIO = "nce.mc_grad.distinct_cell_ratio"
NONZERO_EXITS = "cli.main.nonzero_exits"
# Raw tallies behind CELL_RATIO; summed over calls, divided at report time.
_CELLS = "nce.mc_grad.distinct_cells"
_ROWS = "nce.mc_grad.rows"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sample_array(counters, result, args, kwargs):
    counters[OUT_MB] += result.nbytes / 1e6


def _count_gather(counters, result, args, kwargs):
    # Fancy-indexed reads in classifier_logits: per word a target_emb row,
    # a bias and a noise probability; per context a context_emb row and a
    # log_zc entry.
    params = _arg(args, kwargs, 0, "params")
    contexts = _arg(args, kwargs, 1, "contexts")
    words = _arg(args, kwargs, 2, "words")
    itemsize = params.target_emb.itemsize
    n_bytes = itemsize * (words.size * (params.dim + 2) + contexts.size * (params.dim + 1))
    counters[GATHER_MB] += n_bytes / 1e6


def _count_cells(counters, result, args, kwargs):
    # Distinct (context, word) cells among the n * (k + 1) rows one call
    # gathers; the trainer and the checks always pass a ProxyBatch.
    params = _arg(args, kwargs, 0, "params")
    batch = _arg(args, kwargs, 1, "examples")
    if not hasattr(batch, "noise_words"):
        return
    n_words = params.n_words
    ctx = batch.contexts[:, None] * n_words
    cells = np.concatenate([ctx + batch.true_words[:, None], ctx + batch.noise_words], axis=1)
    seen = np.bincount(cells.ravel(), minlength=params.n_contexts * n_words)
    counters[_CELLS] += np.count_nonzero(seen)
    counters[_ROWS] += cells.size


def _count_exit(counters, result, args, kwargs):
    counters[NONZERO_EXITS] += result != 0


_COUNTERS = {
    "noise.sample_array": _count_sample_array,
    "nce.classifier_logits": _count_gather,
    "nce.mc_grad": _count_cells,
    "cli.main": _count_exit,
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
    out += [
        (OUT_MB, "MB", "lower"),
        (GATHER_MB, "MB", "lower"),
        (CELL_RATIO, "ratio", "higher"),
        (NONZERO_EXITS, "count", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Context manager that records spans while it is active.

    ``calls`` and ``self_s`` are keyed by span name; ``edges`` by
    (caller span, span), with ``""`` as the caller of a top-level span.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, seconds covered by child spans]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        packages = {name: mod for name, mod in sys.modules.items()
                    if name == "ncelm" or name.startswith("ncelm.")}
        for span in SPANS:
            module_name, func_name = span.split(".")
            original = getattr(packages["ncelm." + module_name], func_name)
            wrapper = self._wrap(span, original)
            for mod in packages.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, span, fn):
        stack = self._stack
        count = _COUNTERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([span, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self._close(t1 - t0, t1 - t0)
                raise
            t1 = clock()
            if count is not None:
                count(self.counters, result, args, kwargs)
            self._close(t1 - t0, clock() - t0)
            return result

        return traced

    def _close(self, duration, covered):
        """Pop the innermost span; ``covered`` includes counter-hook time,
        which the caller must not count as its own."""
        span, child_s = self._stack.pop()
        own = duration - child_s
        caller = self._stack[-1] if self._stack else None
        self.calls[span] += 1
        self.self_s[span] += own
        edge = self.edges[(caller[0] if caller else "", span)]
        edge[0] += 1
        edge[1] += own
        if caller is not None:
            caller[1] += covered

    def totals(self) -> dict[str, float]:
        """Additive totals: calls, self time and counters of every span."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = float(self.calls.get(span, 0))
            out[f"{span}.self_ms"] = 1e3 * self.self_s.get(span, 0.0)
        for name in (OUT_MB, GATHER_MB, NONZERO_EXITS, _CELLS, _ROWS):
            out[name] = float(self.counters.get(name, 0.0))
        return out


def combine(setup: Tracer, rounds: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one measured round.

    Additive values are the set-up's plus the median over traced rounds; the
    distinct-cell ratio pools the tallies of the set-up and every round.
    """
    base = setup.totals()
    per_round = [t.totals() for t in rounds]
    out = {}
    for name, value in base.items():
        out[name] = value + float(np.median([r[name] for r in per_round]))
    cells = base[_CELLS] + sum(r[_CELLS] for r in per_round)
    rows = base[_ROWS] + sum(r[_ROWS] for r in per_round)
    del out[_CELLS], out[_ROWS]
    out[CELL_RATIO] = cells / rows if rows else 0.0
    return out
