"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/spread.py --workloads train-small-k,cli-lab --seeds 1-10 \\
        --seconds 30 --trace 0 --out spread.json

Runs ``benchmarks/run.py`` once per (seed, workload), one at a time, seeds in
the outer loop so slow phases of the machine fall on every workload. For each
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json. ``--out`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next((ln[len("# env "):] for ln in lines if ln.startswith("# env ")), "{}")
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    env = None
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            results[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for workload, runs in results.items():
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarise([run["metrics"][name]["value"] for run in runs])
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f" bound {bound:g}" + (" OVER" if stats["spread"] > bound / 3 else ""))
            print(f"{workload:14s} {name:40s} median {stats['median']:12.6g} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {stats['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": json.loads(env), "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": results}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
