"""Output checker: every operation's artifacts against recorded references.

``summarize`` extracts the seed-independent facts of one operation's outputs
(exit code, certificate and check flags, verdicts, exact ``p/q`` angles and
the float tables); ``references.json`` holds those summaries as recorded at
the commit that introduced the benchmark (see ``record_references.py``).
``check`` returns one line per mismatch, and the harness counts an operation
with any mismatch as failed, so no difference can pass silently.

Tolerances: power-bound norms match within a relative 1e-6 either way (the
values are O(1e-7..2) and computed to about 1e-10).  Lattice errors are
roundoff-level (1e-17..1e-10), so only growth counts: a value may exceed
max(reference, ERROR_FLOOR) by at most the relative ERROR_RTOL, and any
smaller value passes.  The floor keeps last-bit noise on tiny errors from
failing an op; it sits four orders below the program's own 1e-8 tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

NORM_RTOL = 1e-6
ERROR_RTOL = 1.0
ERROR_FLOOR = 1e-12
FLOAT_KEYS = {"norms": NORM_RTOL}
ERROR_KEYS = {"lattice_rel_err": ERROR_RTOL}
REFERENCES = Path(__file__).with_name("references.json")


def csv_rows(out_dir: Path) -> int:
    """Data rows (header excluded) of every CSV table in ``out_dir``."""
    rows = 0
    for path in out_dir.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows += sum(1 for _ in csv.reader(fh)) - 1
    return rows


def _flags(command: str, report: dict) -> dict:
    """Every pass/fail flag the report carries, by name."""
    if command == "construct":
        return {"certified": report["construction"]["certified"]}
    if command == "verify":
        return {"all_ok": report["report"]["all_ok"]}
    if command == "semigroup":
        return dict(report["checks"])
    if command == "starnorm":
        result = report["result"]
        if "pairs" in result:
            return {"all_ok": all(pair["all_ok"] for pair in result["pairs"])}
        return {"all_ok": result["all_ok"]}
    return {}


def summarize(command: str, exit_code, out_dir: Path, construction: Path | None = None) -> dict:
    """Seed-independent facts of one operation's outputs."""
    summary = {"exit": exit_code}
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return summary
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        summary["flags"] = _flags(command, report)
        if command == "construct":
            summary["status"] = report["status"]
            if construction is not None and construction.is_file():
                summary["thetas"] = json.loads(construction.read_text(encoding="utf-8"))["thetas"]
        elif command == "verify":
            summary["norms"] = [
                [r["norm_diff"], r["norm_T"], r["analytic_bound"]] for r in report["report"]["rows"]
            ]
        elif command == "semigroup":
            summary["lattice_rel_err"] = [r["rel_err"] for r in report["lift"]["lattice"]["rows"]]
        elif command == "analyze":
            summary["verdict"] = report["classification"]["verdict"]
        elif command == "starnorm":
            summary["csv_rows"] = csv_rows(out_dir)
    except (ValueError, KeyError, TypeError) as exc:
        summary["malformed"] = f"{type(exc).__name__}: {exc}"
    return summary


def _flat(values: list) -> list:
    return [x for row in values for x in (row if isinstance(row, list) else [row])]


def _close(got, want, rtol: float) -> bool:
    return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def check(summary: dict, reference: dict | None) -> list:
    """Mismatch descriptions; empty means the operation's outputs are correct."""
    if reference is None:
        return ["no recorded reference"]
    problems = [f"flag {name} is {value}" for name, value in summary.get("flags", {}).items() if value is not True]
    if "malformed" in summary:
        problems.append(f"unreadable outputs ({summary['malformed']})")
    for key, want in reference.items():
        got = summary.get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif key in FLOAT_KEYS or key in ERROR_KEYS:
            flat_got, flat_want = _flat(got), _flat(want)
            if len(flat_got) != len(flat_want):
                problems.append(f"{key}: {len(flat_got)} values, reference has {len(flat_want)}")
                continue
            for i, (g, w) in enumerate(zip(flat_got, flat_want)):
                if key in FLOAT_KEYS and not _close(g, w, FLOAT_KEYS[key]):
                    problems.append(f"{key}[{i}] = {g!r}, reference {w!r} (rtol {FLOAT_KEYS[key]})")
                elif key in ERROR_KEYS and not (isinstance(g, float) and 0.0 <= g <= max(w, ERROR_FLOOR) * (1.0 + ERROR_KEYS[key])):
                    problems.append(f"{key}[{i}] = {g!r} exceeds reference {w!r} by more than rtol {ERROR_KEYS[key]}")
        elif got != want:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_key(workload: str, size: str, op_id: str) -> str:
    return f"{workload}/{size}/{op_id}"
