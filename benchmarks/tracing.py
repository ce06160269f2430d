"""Spans around calls into the package's public functions, and the layer metrics.

The traced run wraps the public functions listed in TARGETS wherever a
``jamison`` module binds them, so a call made by the CLI or by another
package function passes through a span.  Because the package reaches these
functions through module globals, the spans nest as the calls do: the
children of a composite call (``verify_partial_power_bound`` calling
``matrix_power``, ``operator_norm`` and ``analytic_power_bound``) are its
own sub-calls with their real arguments, and the composite's self time is
the residual its sub-calls do not cover.  Nothing inside the package
changes; the wrappers live in this file and are removed after each op.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    key: str = ""  # variant label: depth of a build, order of a norm
    grid_points: int = 0  # computed from the call's arguments
    grid_evals: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory, in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, key: str = ""):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, parent, 0.0, key=key)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        signature = inspect.signature(fn) if describe else None

        def traced(*args, **kwargs):
            key, points, evals = describe(signature.bind(*args, **kwargs).arguments) if describe else ("", 0, 0)
            with self.span(name, key) as rec:
                rec.grid_points, rec.grid_evals = points, evals
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


def span_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a plain one, best of ``repeats``."""
    def noop():
        return None

    def timed(fn) -> float:
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    wrapped = Tracer().wrap("noop", noop)
    return max(0.0, min(timed(wrapped) for _ in range(repeats)) - min(timed(noop) for _ in range(repeats))) / calls


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover.

    Calls run one at a time, so children never overlap and their durations
    add up to the covered part.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


# --- what gets a span --------------------------------------------------------


def _build_key(a):
    return f"L{a['L']}", 0, 0


def _norm_key(a):
    return f"p{str(a['p']).lower()}", 0, 0


def _separation_grid(a):
    """Grid size of one separation_constant call, from its arguments.

    Mirrors the scan: a 4097-point pilot plus one point per ``resolution``
    over [theta_min, 1/2], where theta_min defaults to 1/(2 n_K).
    """
    K = a["K"]
    resolution = a.get("resolution", 1e-6)
    n_K = float(a["seq"].prefix(K)[-1])
    theta_min = a.get("theta_min")
    if theta_min is None:
        theta_min = 1.0 / (2.0 * n_K) if n_K > 1.0 else resolution
    points = 4097 + int(math.floor((0.5 - theta_min) / resolution)) + 1
    return f"K{K}", points, points * K


TARGETS = (
    ("serialize", "load_sequence", None),
    ("serialize", "write_json", None),
    ("serialize", "save_construction", None),
    ("serialize", "load_construction", None),
    ("sequences", "classify_jamison", None),
    ("sequences", "separation_constant", _separation_grid),
    ("sequences", "near_return_search", None),
    ("construction", "build_construction", _build_key),
    ("construction", "verify_partial_power_bound", None),
    ("construction", "analytic_power_bound", None),
    ("construction", "matrix_power", None),
    ("construction", "operator_norm", _norm_key),
    ("construction", "assemble_operator", None),
    ("semigroup", "principal_log", None),
    ("semigroup", "lift_report", None),
    ("semigroup", "check_lattice", None),
    ("semigroup", "generator_spectrum_check", None),
    ("semigroup", "bounded_along", None),
    ("semigroup", "unit_interval_sup", None),
    ("semigroup", "evolve", None),
    ("starnorm", "verify_translation_bound", None),
    ("starnorm", "dj_bound_check", None),
    ("starnorm", "eigenfield_modulus", None),
    ("starnorm", "star_norm", None),
)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "jamison" or name.startswith("jamison.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every binding of each TARGETS function through a span."""
    patched = []
    try:
        for module, fname, describe in TARGETS:
            original = getattr(importlib.import_module(f"jamison.{module}"), fname)
            wrapped = tracer.wrap(f"{module}.{fname}", original, describe)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def clear_caches() -> None:
    """Empty the package's memo caches, so an in-process op starts as cold as a CLI call."""
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# --- per-layer metrics ---------------------------------------------------------

# (metric, unit, source).  Sources: ("total", span) inclusive time of all calls;
# ("self", span) the residual its wrapped sub-calls do not cover; ("calls", span);
# ("key", span, variant); ("grid_points",) and ("grid_evals_per_s",) computed from
# separation_constant arguments; ("probe",) filled by the harness from outside
# measurements (import times, CSV rows, report fields, tracing overhead).
PER_LAYER = (
    ("cli.import_total_s", "s", ("probe",)),
    ("cli.import_numpy_s", "s", ("probe",)),
    ("cli.import_scipy_signal_s", "s", ("probe",)),
    ("cli.import_jamison_self_s", "s", ("probe",)),
    ("cli.overhead_s", "s", ("self", "cli.main")),
    ("cli.csv_rows_written", "count", ("probe",)),
    ("serialize.load_sequence_s", "s", ("total", "serialize.load_sequence")),
    ("serialize.write_json_s", "s", ("total", "serialize.write_json")),
    ("serialize.save_construction_s", "s", ("total", "serialize.save_construction")),
    ("serialize.load_construction_s", "s", ("total", "serialize.load_construction")),
    ("sequences.classify_jamison_s", "s", ("total", "sequences.classify_jamison")),
    ("sequences.classify_jamison_residual_s", "s", ("self", "sequences.classify_jamison")),
    ("sequences.separation_constant_s", "s", ("total", "sequences.separation_constant")),
    ("sequences.separation_constant_calls", "count", ("calls", "sequences.separation_constant")),
    ("sequences.grid_points", "count", ("grid_points",)),
    ("sequences.grid_evals_per_s", "1/s", ("grid_evals_per_s",)),
    ("sequences.near_return_search_s", "s", ("total", "sequences.near_return_search")),
    ("sequences.near_return_search_calls", "count", ("calls", "sequences.near_return_search")),
    ("sequences.near_return_search_residual_s", "s", ("self", "sequences.near_return_search")),
    ("construction.build_construction_s", "s", ("total", "construction.build_construction")),
    ("construction.build_construction_L8_s", "s", ("key", "construction.build_construction", "L8")),
    ("construction.build_construction_L9_s", "s", ("key", "construction.build_construction", "L9")),
    ("construction.build_construction_L10_s", "s", ("key", "construction.build_construction", "L10")),
    ("construction.build_construction_residual_s", "s", ("self", "construction.build_construction")),
    ("construction.verify_partial_power_bound_s", "s", ("total", "construction.verify_partial_power_bound")),
    ("construction.verify_residual_s", "s", ("self", "construction.verify_partial_power_bound")),
    ("construction.analytic_power_bound_s", "s", ("total", "construction.analytic_power_bound")),
    ("construction.matrix_power_s", "s", ("total", "construction.matrix_power")),
    ("construction.operator_norm_p2_s", "s", ("key", "construction.operator_norm", "p2")),
    ("construction.operator_norm_pinf_s", "s", ("key", "construction.operator_norm", "pinf")),
    ("construction.assemble_operator_s", "s", ("total", "construction.assemble_operator")),
    ("semigroup.principal_log_s", "s", ("total", "semigroup.principal_log")),
    ("semigroup.lift_report_s", "s", ("total", "semigroup.lift_report")),
    ("semigroup.lift_report_residual_s", "s", ("self", "semigroup.lift_report")),
    ("semigroup.check_lattice_s", "s", ("total", "semigroup.check_lattice")),
    ("semigroup.check_lattice_residual_s", "s", ("self", "semigroup.check_lattice")),
    ("semigroup.generator_spectrum_check_s", "s", ("total", "semigroup.generator_spectrum_check")),
    ("semigroup.bounded_along_s", "s", ("total", "semigroup.bounded_along")),
    ("semigroup.bounded_along_residual_s", "s", ("self", "semigroup.bounded_along")),
    ("semigroup.unit_interval_sup_s", "s", ("total", "semigroup.unit_interval_sup")),
    ("semigroup.unit_interval_sup_residual_s", "s", ("self", "semigroup.unit_interval_sup")),
    ("semigroup.evolve_s", "s", ("total", "semigroup.evolve")),
    ("semigroup.evolve_calls", "count", ("calls", "semigroup.evolve")),
    ("semigroup.lattice_rel_err_max", "ratio", ("probe",)),
    ("starnorm.verify_translation_bound_s", "s", ("total", "starnorm.verify_translation_bound")),
    ("starnorm.verify_translation_bound_residual_s", "s", ("self", "starnorm.verify_translation_bound")),
    ("starnorm.dj_bound_check_s", "s", ("total", "starnorm.dj_bound_check")),
    ("starnorm.eigenfield_modulus_s", "s", ("total", "starnorm.eigenfield_modulus")),
    ("starnorm.eigenfield_modulus_residual_s", "s", ("self", "starnorm.eigenfield_modulus")),
    ("starnorm.star_norm_s", "s", ("total", "starnorm.star_norm")),
    ("starnorm.star_norm_calls", "count", ("calls", "starnorm.star_norm")),
    ("trace_overhead_s", "s", ("probe",)),
)


def aggregate(spans) -> dict:
    """Totals, residuals, call counts and variant totals per span name."""
    agg = {"total": defaultdict(float), "self": defaultdict(float), "calls": Counter(),
           "key": defaultdict(float), "grid_points": 0, "grid_evals": 0, "grid_s": 0.0}
    for s, own in zip(spans, self_times(spans)):
        agg["total"][s.name] += s.duration
        agg["self"][s.name] += own
        agg["calls"][s.name] += 1
        if s.key:
            agg["key"][(s.name, s.key)] += s.duration
        if s.grid_points:
            agg["grid_points"] += s.grid_points
            agg["grid_evals"] += s.grid_evals
            agg["grid_s"] += s.duration
    return agg


def layer_metrics(spans, probes: dict) -> dict:
    """Every PER_LAYER metric: span-derived ones from ``spans``, the rest from ``probes``."""
    agg = aggregate(spans)
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "probe":
            value = probes[name]
        elif kind == "key":
            value = agg["key"][(source[1], source[2])]
        elif kind == "grid_points":
            value = agg["grid_points"]
        elif kind == "grid_evals_per_s":
            value = agg["grid_evals"] / agg["grid_s"] if agg["grid_s"] > 0 else 0.0
        else:
            value = agg[kind][source[1]]
        out[name] = {"value": value, "unit": unit}
    return out


# --- import breakdown ------------------------------------------------------------


def parse_importtime(stderr: str) -> dict:
    """Import cost from ``python -X importtime`` output, in seconds.

    total: self time of every module imported; numpy and scipy.signal:
    cumulative time of their first import; jamison self: self time of the
    package's own modules.
    """
    total = jamison_self = 0.0
    first = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        own_s, cum_s, name = int(own) * 1e-6, int(cumulative) * 1e-6, name.strip()
        total += own_s
        first.setdefault(name, cum_s)
        if name == "jamison" or name.startswith("jamison."):
            jamison_self += own_s
    return {
        "cli.import_total_s": total,
        "cli.import_numpy_s": first.get("numpy", 0.0),
        "cli.import_scipy_signal_s": first.get("scipy.signal", 0.0),
        "cli.import_jamison_self_s": jamison_self,
    }


def median_metrics(runs: list) -> dict:
    """Per-metric median over passes; every pass reports the same names."""
    return {
        name: {"value": statistics.median(r[name]["value"] for r in runs), "unit": runs[0][name]["unit"]}
        for name in runs[0]
    }
