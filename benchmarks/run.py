"""ncelm benchmark: three workloads, end-to-end metrics and a traced run per module.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload train-small-k --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``train-small-k``, ``train-large-k``, ``cli-lab``.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off. With ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of layers.py for one set-up plus one round,
with ``trace_overhead_ratio`` = median traced round ÷ median untraced round.
Per-layer times are the tracer's own, not scaled as below.

Each run does SETUP_REPS set-ups and reports their median, plus the one-off
import time, as ``setup_s``; then it repeats rounds until ``--seconds`` have
passed. ``wall_s`` and ``step_us`` are medians over rounds, and
``op_ms_p50``/``op_ms_p90`` percentiles over every timed operation.

Every time is scaled to a nominal host. On a shared host the same code runs
up to twice as slow for minutes at a time, as other tenants take the
machine's cores, so medians of runs minutes apart differ by more than any
bound worth keeping. The calibration kernel of calibration.py, which uses
nothing from ncelm, runs just before and just after every set-up and every
timed operation, and each time is multiplied by calibration.NOMINAL_S ÷ the
mean kernel time around it. The raw medians and the kernel's times are
printed on ``#`` lines.

Lines before the last describe the environment, every metric with
its unit and sample count, and the failure ratio; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()

# One process and no extra threads: the matmuls here are tiny, and a BLAS
# thread pool adds start-up cost and scheduling noise on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_us": "us",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_kl_nats": "nats",
    "ok_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ncelm from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "ncelm" / "__init__.py").is_file():
        print(f"error: no ncelm package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ncelm.cli  # noqa: F401  imports every module the spans name

    if Path(ncelm.__file__).resolve().parent != SRC / "ncelm":
        print(f"error: imported ncelm from {ncelm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import_s = time.perf_counter() - T_START

    import calibration
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        wl = workloads.make(args.workload, args.seed, workdir)

        host_log = []  # every kernel time, in order

        def calibrate() -> float:
            host_log.append(calibration.seconds())
            return host_log[-1]

        setup_times = []  # (seconds, mean kernel time around it)
        setup_trace = layers.Tracer()
        for rep in range(SETUP_REPS):
            traced = args.trace and rep == SETUP_REPS - 1
            before = calibrate()
            t0 = time.perf_counter()
            if traced:
                with setup_trace:
                    wl.setup()
            else:
                wl.setup()
            setup_times.append((time.perf_counter() - t0, (before + calibrate()) / 2))

        # (traced, wall seconds less the kernel's, mean kernel time, operations)
        rounds = []
        round_traces = []
        min_rounds = 2 if args.trace else 1
        wl.calibrate = calibrate
        body_start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - body_start < args.seconds:
            traced = args.trace and len(rounds) % 2 == 1
            tracer = layers.Tracer()
            first = len(host_log)
            t0 = time.perf_counter()
            if traced:
                with tracer:
                    round_ops = wl.run_round(len(rounds))
            else:
                round_ops = wl.run_round(len(rounds))
            wall = time.perf_counter() - t0
            kernel = host_log[first:]
            rounds.append((traced, wall - sum(kernel), statistics.fmean(kernel), round_ops))
            if traced:
                round_traces.append(tracer)
        wl.finish()

    all_ops = [op for *_, ops in rounds for op in ops]
    attempted = len(all_ops)
    failed = min(attempted, sum(not op.ok for op in all_ops) + wl.failed_checks)
    correct = failed == 0
    final_kl = [kl for kl in wl.final_kl() if math.isfinite(kl)] or [0.0]

    nominal = calibration.NOMINAL_S
    untraced = [r for r in rounds if not r[0]]
    round_walls = [nominal * wall / host for _, wall, host, _ in untraced]
    traced_walls = [nominal * wall / host for traced, wall, host, _ in rounds if traced]
    round_steps_us = [
        1e6 * nominal * sum(op.seconds / op.host_s for op in ops if op.steps)
        / sum(op.steps for op in ops)
        for *_, ops in untraced
    ]
    latencies = [1e3 * nominal * op.seconds / op.host_s for *_, ops in untraced for op in ops]
    setup_s = [nominal * t / host for t, host in setup_times]
    import_host = setup_times[0][1]

    print(f"# rounds {len(rounds)} (traced {len(round_traces)}), operations {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.6f}")
    print(f"# host: kernel median {1e3 * statistics.median(host_log):.3f} ms, best "
          f"{1e3 * min(host_log):.3f} ms, n={len(host_log)}; nominal {1e3 * nominal:g} ms")
    print(f"# raw (not scaled): set-up median {statistics.median(t for t, _ in setup_times):.6g} s, "
          f"import {import_s:.6g} s, round median "
          f"{statistics.median(wall for _, wall, _, _ in untraced):.6g} s")
    for i, reps in enumerate(zip(*(ops for *_, ops in untraced))):
        raw = [1e3 * op.seconds for op in reps]
        scaled = [1e3 * nominal * op.seconds / op.host_s for op in reps]
        print(f"# op {i} {reps[0].kind}: median_ms {statistics.median(scaled):.3f} "
              f"raw {statistics.median(raw):.3f} n={len(reps)}")

    if args.trace:
        values = layers.combine(setup_trace, round_traces)
        values["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(round_walls)
        units = {name: unit for name, unit, _ in layers.metric_names()}
        missing = [span for span in workloads.EXPECTED_SPANS[args.workload]
                   if values[f"{span}.calls"] < 1]
        if missing:
            print(f"# check failed: no calls recorded for {', '.join(missing)}")
            correct = False
        print(f"# per-layer values: one set-up plus the median of {len(round_traces)} traced rounds")
        edges = {}
        for t in [setup_trace, *round_traces]:
            for key, (calls, self_s) in t.edges.items():
                acc = edges.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        for (caller, span), (calls, self_s) in sorted(edges.items()):
            print(f"# span {caller or '-'} > {span}: calls {calls} self_ms {1e3 * self_s:.3f}")
        samples = {name: len(round_traces) for name in units}
    else:
        values = {
            "setup_s": nominal * import_s / import_host + statistics.median(setup_s),
            "wall_s": statistics.median(round_walls),
            "step_us": statistics.median(round_steps_us),
            "op_ms_p50": percentile(latencies, 50),
            "op_ms_p90": percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_kl_nats": statistics.fmean(final_kl),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        samples = {
            "setup_s": SETUP_REPS, "wall_s": len(round_walls), "step_us": len(round_steps_us),
            "op_ms_p50": len(latencies), "op_ms_p90": len(latencies), "peak_rss_mb": 1,
            "final_kl_nats": len(final_kl), "ok_ratio": attempted,
        }
    for name, value in values.items():
        print(f"# metric {name} {value:.6g} {units[name]} n={samples[name]}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
