"""The benchmark's pinned spans name functions that exist in ncelm.

A traced benchmark run fails when a span in ``benchmarks/workloads.py``
``EXPECTED_SPANS`` records no call, which a renamed or deleted function
causes; this catches it in the unit suite instead. The benchmark modules are
only read, never changed.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

from ncelm import cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layers = _load("layers")
_PINNED = sorted({span for spans in workloads.EXPECTED_SPANS.values() for span in spans})


@pytest.mark.parametrize("span", _PINNED)
def test_pinned_span_is_a_traced_ncelm_function(span):
    module_name, func_name = span.split(".")
    func = getattr(importlib.import_module(f"ncelm.{module_name}"), func_name, None)
    assert inspect.isfunction(func), f"{span} is not a function in ncelm"
    # The tracer wraps only layers.SPANS, so a pinned span outside it never fires.
    assert span in layers.SPANS


def test_every_workload_pins_spans():
    assert sorted(workloads.EXPECTED_SPANS) == sorted(workloads.WORKLOADS)


# The training spans a sweep must record now that all its runs train in one
# lockstep loop, outside trainer.train.
_SWEEP_SPANS = ("noise.sample_array", "nce.mc_grad", "model.apply_gradient", "model.params_finite",
                "trainer.kl_truth_model", "model.log_partitions")


def test_a_stacked_sweep_fires_the_pinned_training_spans(tmp_path):
    prefix = str(tmp_path / "lab")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--vocab-size", "8", "--tokens", "600", "--out-prefix", prefix]) == 0
    assert set(_SWEEP_SPANS) <= set(layers.SPANS)
    with layers.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", "--corpus", prefix + ".txt", "--truth", prefix + ".truth",
                         "--noise", "unigram", "--ks", "1,5", "--epochs", "2", "--eval-every", "2",
                         "--dim", "3", "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert tracer.calls["cli.main"] == 1 and tracer.calls["trainer.train"] == 0
    for span in _SWEEP_SPANS:
        assert tracer.calls[span] > 0, span
