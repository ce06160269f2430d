"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 benchmarks/spread.py --workload depth-ladder [--runs 10] [--trace 0] [--record benchmarks/BENCH_baseline.json]

Each run is a separate ``run.py`` process, with seeds 1..runs and the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the interquartile
distance as a share of the median.  ``--record`` adds the set to a baseline
file in the layout of ``BENCH_baseline.json``: an untraced set is appended to
``workloads.<name>.sets``, a traced one to ``workloads.<name>.traced_sets``.
The file is created, with the commit and the machine, if it does not exist.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run
import workloads


def measure(workload: str, runs: int, trace: int, seconds: int) -> dict:
    """One set: ``runs`` runs of ``run.py`` and the spread of every metric over them."""
    results, runs_s = [], []
    for seed in range(1, runs + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        runs_s.append(round(perf_counter() - start, 1))
        print(f"seed {seed}: {runs_s[-1]:.1f} s, failed {results[-1]['failed']} of "
              f"{results[-1]['attempted']}", file=sys.stderr)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / median if median else None, "values": values}
    return {
        "seconds": seconds,
        "seeds": list(range(1, runs + 1)),
        "runs_s": runs_s,
        "ops_attempted": sum(r["attempted"] for r in results),
        "ops_failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _new_baseline() -> dict:
    import numpy
    import scipy

    git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "date": datetime.date.today().isoformat(),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }


def record(path: Path, workload: str, trace: int, one_set: dict) -> None:
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else _new_baseline()
    entry = baseline["workloads"].setdefault(workload, {"sets": [], "traced_sets": []})
    entry["traced_sets" if trace else "sets"].append(one_set)
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    one_set = measure(args.workload, args.runs, args.trace, spec["run_seconds"])
    for name, m in one_set["metrics"].items():
        share = m["iqr_share"] if m["iqr_share"] is not None else float("nan")
        print(f"{name:<48} median {m['median']:12.6g} {m['unit']:<6} IQR/median {share:8.4f}")
    print(f"runs {args.runs}, failed ops {one_set['ops_failed']} of {one_set['ops_attempted']}, "
          f"longest run {max(one_set['runs_s']):.1f} s")
    if args.record:
        record(args.record, args.workload, args.trace, one_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())
