"""Tests of the benchmark itself: checker, span arithmetic, metric names, smoke runs.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import checker
import run
import tracing
import workloads

REPO = run.ROOT
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _reference(key):
    return checker.load_references()[key]


# --- checker -----------------------------------------------------------------------


def test_checker_accepts_the_recorded_reference():
    ref = _reference("depth-ladder/full/construct-L8")
    assert checker.check(dict(ref), ref) == []


def test_checker_rejects_wrong_exit_code():
    ref = _reference("depth-ladder/full/verify-L8")
    problems = checker.check({**ref, "exit": 2}, ref)
    assert problems == ["exit = 2, reference 0"]


def test_checker_rejects_altered_angle_string():
    ref = _reference("depth-ladder/full/construct-L9")
    thetas = list(ref["thetas"])
    p, q = thetas[3].split("/")
    thetas[3] = f"{int(p) + 1}/{q}"
    problems = checker.check({**ref, "thetas": thetas}, ref)
    assert len(problems) == 1 and problems[0].startswith("thetas = ")


def test_checker_rejects_false_flag_missing_reference_and_drifted_norm():
    ref = _reference("depth-ladder/full/semigroup-L10")
    assert "flag bounded is False" in checker.check({**ref, "flags": {**ref["flags"], "bounded": False}}, ref)
    assert checker.check(ref, None) == ["no recorded reference"]
    vref = _reference("depth-ladder/full/verify-L8")
    norms = [list(row) for row in vref["norms"]]
    norms[2][1] *= 1.0 + 1e-5
    assert len(checker.check({**vref, "norms": norms}, vref)) == 1


def test_checker_lattice_error_may_shrink_but_not_grow():
    ref = _reference("depth-ladder/full/semigroup-L10")
    errs = ref["lattice_rel_err"]
    assert checker.check({**ref, "lattice_rel_err": [e / 10 for e in errs]}, ref) == []
    grown = list(errs)
    grown[-1] = errs[-1] * 3 + 3 * checker.ERROR_FLOOR
    assert len(checker.check({**ref, "lattice_rel_err": grown}, ref)) == 1


def test_summarize_flags_unreadable_report(tmp_path):
    (tmp_path / "report.json").write_text('{"command": "construct", "status": "infeasible"}')
    summary = checker.summarize("construct", 3, tmp_path)
    problems = checker.check(summary, _reference("depth-ladder/full/construct-L8"))
    assert "exit = 3, reference 0" in problems
    assert any(p.startswith("unreadable outputs") for p in problems)


# --- spans -------------------------------------------------------------------------


def _span(name, parent, start, end):
    return tracing.Span(name, parent, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.inner", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    agg = tracing.aggregate(spans)
    assert agg["self"]["cli.main"] == pytest.approx(6.0)
    assert agg["total"]["a"] == pytest.approx(3.0)


def test_tracer_nests_spans_through_package_globals_and_restores_them():
    import jamison.construction as construction
    import jamison.semigroup as semigroup
    import numpy as np

    original = construction.matrix_power
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span("cli.main"):
        assert semigroup.matrix_power is not original
        construction.operator_norm(construction.matrix_power(np.eye(3), 4), "inf")
    assert construction.matrix_power is original and semigroup.matrix_power is original
    names = [(s.name, s.parent, s.key) for s in tracer.spans]
    assert names == [
        ("cli.main", -1, ""),
        ("construction.matrix_power", 0, ""),
        ("construction.operator_norm", 0, "pinf"),
    ]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       5000 |   numpy",
        "import time:       200 |     300000 |   scipy.signal",
        "import time:       300 |        300 | jamison.sequences",
        "import time:       400 |     306000 | jamison",
    ])
    got = tracing.parse_importtime(text)
    assert got == pytest.approx({
        "cli.import_total_s": 1900e-6,
        "cli.import_numpy_s": 5000e-6,
        "cli.import_scipy_signal_s": 0.3,
        "cli.import_jamison_self_s": 700e-6,
    })


# --- workloads and metric names ------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    a, b, c = (workloads.build("depth-ladder", s).inputs for s in (7, 7, 8))
    assert a == b and a != c
    assert workloads.build("sequence-lab", 7).ops == workloads.build("sequence-lab", 7).ops


def test_cli_metrics_take_per_op_medians_over_passes():
    passes = [
        {"a": ("construct", 1.0, 2.0, 100.0), "b": ("verify", 1.2, 5.0, 300.0)},
        {"a": ("construct", 3.0, 4.0, 101.0), "b": ("verify", 1.1, 9.0, 302.0)},
        {"a": ("construct", 1.5, 3.0, 102.0), "b": ("verify", 0.9, 6.0, 301.0)},
    ]
    values, per_op = run.cli_metrics(passes)
    assert per_op == {"a": ("construct", 1.5, 3.0, 101.0), "b": ("verify", 1.1, 6.0, 301.0)}
    assert values == {"setup_s": pytest.approx(1.15), "wall_s": 9.0, "peak_rss_mb": 301.0}


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in tracing.PER_LAYER]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: workloads.build(n, 0).why for n in workloads.WORKLOADS
    }
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "depth-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
