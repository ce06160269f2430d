"""Benchmark of the ``jamison`` command line, end to end and per layer.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Each workload
(``workloads.py``) is a fixed list of CLI operations over seeded input
files, sent by one client in a closed loop: the next operation starts
when the previous one has ended.

``--trace 0`` times whole CLI invocations, one fresh interpreter per
operation, and reports the end-to-end metrics.  ``--trace 1`` runs every
operation in this process through ``jamison.cli.main``, with spans around
the package's public functions, and reports the per-layer metrics of
``tracing.PER_LAYER``.  Both modes repeat whole passes of the workload
while a further pass fits in ``--seconds`` (at least two) and report
medians over passes.  Every operation's outputs go through ``checker.py``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # every op is killed once the run is this old
IMPORTTIME_PROBES = 3
# Two passes at least, so that every op's median has two samples, taken
# about one pass apart in time, whatever the host's speed during the run.
MIN_PASSES = 2
COMMANDS = ("construct", "verify", "semigroup", "analyze", "starnorm")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_CLI = f"import sys; sys.path.insert(0, {str(SRC)!r}); import jamison.cli"
# The op's child writes the monotonic time at which ``import jamison.cli``
# finished to the file named by its first argument, then runs the CLI.
_RUN_CLI = (_IMPORT_CLI + "; import time; open(sys.argv.pop(1), 'w').write(repr(time.monotonic()))"
            "; sys.exit(jamison.cli.main(sys.argv[1:]))")


def run_child(argv, log_path: Path, timeout: float) -> tuple:
    """Run one child process; (spawn time, wall seconds, peak RSS in MB from ``os.wait4``, exit code).

    The spawn time is read from ``time.monotonic`` (CLOCK_MONOTONIC, one clock
    for every process on the host).  The child is killed once ``timeout``
    seconds have passed, and is always reaped before this returns or raises.
    """
    with open(log_path, "wb") as log:
        start = monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """State of one benchmark invocation: directories, deadline, references."""

    def __init__(self, workload: workloads.Workload, size: str, dir_: Path):
        self.workload, self.size, self.dir = workload, size, dir_
        self.in_dir = dir_ / "inputs"
        self.started = perf_counter()
        self.references = checker.load_references()
        self.attempted = 0
        self.failures = []
        self.summaries = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def check(self, op: workloads.Op, exit_code, out_dir: Path) -> None:
        construction = None
        if op.command == "construct":
            construction = Path(op.argv[op.argv.index("--out") + 1].format(out=out_dir.parent))
        summary = checker.summarize(op.command, exit_code, out_dir, construction)
        self.summaries[op.id] = summary
        key = checker.reference_key(self.workload.name, self.size, op.id)
        problems = checker.check(summary, self.references.get(key))
        self.attempted += 1
        if problems:
            self.failures.append((op.id, problems))


# --- probes measured from outside ----------------------------------------------


def warm_start(run: Run) -> None:
    """One fresh interpreter importing jamison.cli, untimed, so the first op does not pay for cold files."""
    run_child([sys.executable, "-c", _IMPORT_CLI], run.dir / "warm.log", run.remaining())


def import_breakdown(run: Run) -> dict:
    """Median import costs over fresh ``-X importtime`` interpreters."""
    probes = []
    for i in range(IMPORTTIME_PROBES):
        log = run.dir / f"importtime-{i}.log"
        run_child([sys.executable, "-X", "importtime", "-c", _IMPORT_CLI], log, run.remaining())
        probes.append(tracing.parse_importtime(log.read_text(encoding="utf-8", errors="replace")))
    return {name: statistics.median(p[name] for p in probes) for name in probes[0]}


# --- passes ----------------------------------------------------------------------


def cli_pass(run: Run, pass_dir: Path) -> dict:
    """Every op as a fresh ``jamison`` process.

    Returns op id -> (command, set-up seconds, wall seconds, peak RSS in MB).
    Set-up is the time from spawning the op's interpreter to the end of its
    ``import jamison.cli``; wall is spawn to reap, set-up included.
    """
    rows = {}
    for op in run.workload.ops:
        stamp = pass_dir / f"{op.id}.imported"
        argv = [sys.executable, "-c", _RUN_CLI, str(stamp)] + op.resolve(run.in_dir, pass_dir)
        spawned, wall, rss, code = run_child(argv, pass_dir / f"{op.id}.log", run.remaining())
        run.check(op, code, pass_dir / op.id)
        try:
            setup = float(stamp.read_text(encoding="utf-8")) - spawned
        except (OSError, ValueError):  # the child died before its import finished
            setup = wall
        rows[op.id] = (op.command, setup, wall, rss)
    return rows


def _in_process(cli, op: workloads.Op, run: Run, pass_dir: Path, tracer) -> None:
    argv = op.resolve(run.in_dir, pass_dir)
    tracing.clear_caches()
    with open(pass_dir / f"{op.id}.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            with tracing.installed(tracer), tracer.span("cli.main", op.id):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a harness crash
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = f"uncaught {type(exc).__name__}"
    run.check(op, code, pass_dir / op.id)


def traced_pass(run: Run, pass_dir: Path, imports: dict) -> tuple:
    """Every op in this process under spans; the layer metrics and the separation time per horizon."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jamison.cli as cli

    tracer = tracing.Tracer()
    for op in run.workload.ops:
        _in_process(cli, op, run, pass_dir, tracer)
    lattice = [0.0]
    csv_rows = 0
    for op in run.workload.ops:
        csv_rows += checker.csv_rows(pass_dir / op.id)
        if op.command == "semigroup":
            lattice += run.summaries[op.id].get("lattice_rel_err", [])
    probes = dict(imports)
    probes.update({
        "cli.csv_rows_written": csv_rows,
        "semigroup.lattice_rel_err_max": max(lattice),
        "trace_overhead_s": len(tracer.spans) * tracing.span_cost(),
    })
    by_horizon = {
        key: seconds for (name, key), seconds in tracing.aggregate(tracer.spans)["key"].items()
        if name == "sequences.separation_constant"
    }
    return tracing.layer_metrics(tracer.spans, probes), by_horizon


def _loop(run: Run, seconds: float, one_pass) -> list:
    """Whole passes while another one fits in ``seconds``; at least MIN_PASSES."""
    results = []
    start = perf_counter()
    while True:
        pass_dir = run.dir / f"pass-{len(results)}"
        pass_dir.mkdir(parents=True)
        t0 = perf_counter()
        results.append(one_pass(pass_dir))
        if not run.failures:
            shutil.rmtree(pass_dir)
        last = perf_counter() - t0
        elapsed = perf_counter() - start
        if run.remaining() < 2 * last:
            return results
        if len(results) >= MIN_PASSES and elapsed + last > seconds:
            return results


# --- reporting -------------------------------------------------------------------


def cli_metrics(passes: list) -> tuple:
    """End-to-end values and the per-op medians they are made of.

    Each op's set-up, wall and peak RSS is its median over the passes.
    ``wall_s`` sums the ops' median walls and ``peak_rss_mb`` is the largest
    median RSS; ``setup_s`` is the median set-up of every op start in the run.
    """
    per_op = {
        op_id: (command, *(statistics.median(p[op_id][i] for p in passes) for i in (1, 2, 3)))
        for op_id, (command, *_) in passes[0].items()
    }
    values = {
        "setup_s": statistics.median(p[op_id][1] for p in passes for op_id in p),
        "wall_s": sum(wall for _, _, wall, _ in per_op.values()),
        "peak_rss_mb": max(rss for _, _, _, rss in per_op.values()),
    }
    return values, per_op


def _print_cli_table(per_op: dict, n_passes: int) -> None:
    print(f"{'op':<22} {'command':<10} {'setup_s':>8} {'wall_s':>9} {'peak_rss_mb':>12}"
          f"   (median over {n_passes} pass(es))")
    for op_id, (command, setup, wall, rss) in per_op.items():
        print(f"{op_id:<22} {command:<10} {setup:8.3f} {wall:9.3f} {rss:12.1f}")
    for command in COMMANDS:
        walls = [wall for c, _, wall, _ in per_op.values() if c == command]
        if walls:
            print(f"{command + '_s':<33} {sum(walls):9.3f} s")


def _print_layer_table(metrics: dict, by_horizon: dict) -> None:
    for name, unit, _ in tracing.PER_LAYER:
        value = metrics[name]["value"]
        if value:
            print(f"{name:<48} {value:14.6g} {unit}")
    for key, seconds in sorted(by_horizon.items(), key=lambda kv: int(kv[0][1:])):
        print(f"{'sequences.separation_constant_' + key + '_s':<48} {seconds:14.6g} s")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    workload = workloads.build(name, seed, size)
    run_dir = WORK / f"{name}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(workload, size, run_dir)
    workloads.write_inputs(workload, run.in_dir)
    print(f"== {name} (seed {seed}, {size}, trace {int(trace)}): {workload.why}")

    if trace:
        imports = import_breakdown(run)
        passes = _loop(run, seconds, lambda d: traced_pass(run, d, imports))
        metrics = tracing.median_metrics([m for m, _ in passes])
        _print_layer_table(metrics, passes[0][1])
    else:
        warm_start(run)
        passes = _loop(run, seconds, lambda d: cli_pass(run, d))
        values, per_op = cli_metrics(passes)
        _print_cli_table(per_op, len(passes))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        for m, unit in END_TO_END:
            print(f"{m:<33} {values[m]:9.3f} {unit}")

    for op_id, problems in run.failures:
        for problem in problems:
            print(f"FAILED {op_id}: {problem}", file=sys.stderr)
    print(f"ops_failed {len(run.failures)} of ops_attempted {run.attempted}")
    if not run.failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every op for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills and reaps its process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "jamison" / "cli.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
