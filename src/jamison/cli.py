"""Command-line front end for the package pipelines.

Subcommands:
  analyze    near-return separation profile and verdict for a stored sequence
  construct  adaptive eigenvalue placement with budget certificates
  verify     power-bound table for a stored certified construction
  semigroup  principal-log lift, lattice agreement, spectrum, real-time bounds
  starnorm   weighted-norm experiments: translation bound, pair table, field table
  report     index the JSON and CSV artifacts of a directory into report.json

Exit codes separate what went wrong: 0 success; 1 bad configuration or
unreadable input; 2 a checked invariant failed or a stored artifact is
corrupt (the failing rows are dumped to stderr as JSON); 3 the construction
search proved infeasible at some level.  Each error type carries its code and
stderr label in ``jamison.errors``, the one table; main adds only OSError.

All artifacts are deterministic functions of the flags and the seed; the only
field that varies between identical runs is report.json's "timestamp".
starnorm draws its samples from Python's random.Random(--seed), so no
command loads numpy.random.

Each handler imports the modules its command needs, so a command loads only
its own part of the package (analyze and report need no more than the
sequence and serializer modules that this module imports).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetInfeasible, ConfigInvalid, InvariantFailure, JamisonError
from .sequences import classify_jamison
from .serialize import MAX_FIBERS, check_fibers, load_construction, load_sequence, read_json, save_construction, write_json

def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_report(out_dir: Path, command: str, payload: dict) -> None:
    """Write report.json: the payload in the envelope every command shares."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    write_json(out_dir / "report.json", {"command": command, "timestamp": stamp, **payload})


# --- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so bad flags land on exit code 1, not argparse's 2."""

    def error(self, message):
        raise ConfigInvalid(message)


def _seed(text: str) -> int:
    """A --seed value; random.Random seeds from |seed|, so a negative one would repeat its twin."""
    try:
        seed = int(text)
    except ValueError:
        pass
    else:
        if seed >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jamison", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="separation profile and verdict for a sequence")
    p.add_argument("--sequence", required=True, help="sequence JSON file")
    p.add_argument("--horizons", default="10,100,1000", help="comma-separated horizons")
    p.add_argument("--resolution", type=float, default=1e-6, help="width of each certified separation interval")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("construct", help="adaptive eigenvalue placement with certificates")
    p.add_argument("--sequence", required=True, help="sequence JSON file")
    p.add_argument("--levels", type=int, required=True, help="number of eigenvalue levels L")
    p.add_argument(
        "--fibers", type=int, default=2,
        help=f"fiber truncation I stored for assembly, at most {MAX_FIBERS} so that verify's tail bound 0.5**I evaluates",
    )
    p.add_argument("--weights", default="linear", help="'linear' (w_l = l) or a JSON file with a list of at least L - 1 numbers")
    p.add_argument("--horizon", type=int, default=None, help="sequence horizon K (default: full length)")
    p.add_argument("--out", required=True, help="construction JSON output path")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("verify", help="power-bound table for a certified construction")
    p.add_argument("--construction", required=True, help="construction JSON file")
    p.add_argument("--p", default="2", choices=["1", "2", "inf"], help="operator norm order")
    p.add_argument("--powers", type=int, required=True, help="check sequence powers k <= P")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("semigroup", help="principal-log lift and continuous-time checks")
    p.add_argument("--construction", required=True, help="construction JSON file")
    p.add_argument("--real-sequence", default=None, help="optional real-time sequence JSON file")
    p.add_argument("--powers", type=int, required=True, help="lattice horizon P")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("starnorm", help="weighted-norm experiments")
    p.add_argument("--sequence", required=True, help="sequence JSON file")
    p.add_argument("--mode", required=True, choices=["bound", "pairs", "field"])
    p.add_argument("--J", type=int, default=1, help="outer truncation order")
    p.add_argument("--K", type=int, default=6, help="sequence truncation horizon")
    p.add_argument("--seed", type=_seed, default=0, help="sample generator seed (>= 0)")
    p.add_argument("--count", type=int, default=None, help="sample count (mode-specific default)")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("report", help="index a directory of artifacts")
    p.add_argument("--out-dir", default=".", help="directory to index")

    return parser


# --- command handlers ----------------------------------------------------------


def _cmd_analyze(args) -> int:
    seq = load_sequence(args.sequence)
    try:
        horizons = [int(h) for h in str(args.horizons).split(",") if h.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"bad horizon list {args.horizons!r}") from exc
    result = classify_jamison(seq, horizons, resolution=args.resolution)
    out_dir = Path(args.out_dir)
    _emit_report(out_dir, args.command, {
        "config": {
            "sequence": str(args.sequence),
            "horizons": horizons,
            "resolution": args.resolution,
        },
        "classification": result.to_json_dict(),
    })
    _write_csv(
        out_dir / "decay.csv",
        ("K", "epsilon_hat_torus", "epsilon_hat_chord", "witness_theta"),
        [(r.horizon, r.epsilon_hat_torus, r.epsilon_hat, float(r.witness)) for r in result.reports],
    )
    print(f"verdict: {result.verdict}")
    return 0


def _resolve_weights(spec: str, levels: int) -> tuple:
    if spec == "linear":
        return tuple(float(l) for l in range(1, levels))
    try:
        data = json.loads(Path(spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"weight file {spec}: not valid JSON ({exc})") from exc
    # bool is an int subclass, but true is not a weight
    if not isinstance(data, list) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in data):
        raise ConfigInvalid(f"weight file {spec}: expected a JSON list of numbers")
    # an integer past the double range reads as inf, which the build refuses as it refuses 1e400
    return tuple(float(x) if abs(x) <= sys.float_info.max else float("inf") for x in data)


def _cmd_construct(args) -> int:
    from .construction import build_construction

    seq = load_sequence(args.sequence)
    horizon = args.horizon if args.horizon is not None else len(seq)
    weights = _resolve_weights(args.weights, args.levels)
    out_dir = Path(args.out_dir)
    # a bad --fibers or a missing directory for --out is met before the build, not after it
    check_fibers(args.fibers)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    config = {
        "sequence": str(args.sequence),
        "levels": args.levels,
        "fibers": args.fibers,
        "weights": list(weights),
        "horizon": horizon,
        "out": str(args.out),
    }
    try:
        cons = build_construction(seq, L=args.levels, K=horizon, w=weights)
    except BudgetInfeasible as exc:
        _emit_report(out_dir, args.command, {
            "config": config,
            "status": "infeasible",
            "level": exc.level,
            "predicate": exc.predicate,
        })
        raise
    save_construction(cons, args.out, fibers=args.fibers)
    _emit_report(out_dir, args.command, {
        "config": config,
        "status": "certified",
        "construction": {
            "levels": cons.levels,
            "horizon": cons.horizon,
            "certified": cons.certified,
            "nuclear_partial_sum": cons.nuclear_partial_sum,
            "gaps": list(cons.gaps),
        },
    })
    print(f"construction written to {args.out} (certified: {cons.certified})")
    return 0


def _cmd_verify(args) -> int:
    from .construction import verify_partial_power_bound

    cons, fibers = load_construction(args.construction)
    report = verify_partial_power_bound(cons, fibers, args.powers, args.p)
    out_dir = Path(args.out_dir)
    _emit_report(out_dir, args.command, {
        "config": {
            "construction": str(args.construction),
            "p": str(args.p),
            "powers": args.powers,
            "fibers": fibers,
        },
        "report": report.to_json_dict(),
    })
    _write_csv(
        out_dir / "powers.csv",
        ("k", "n_k", "norm_diff", "norm_T", "analytic_bound"),
        report.csv_rows(),
    )
    if not report.all_ok:
        failing = [r.to_json_dict() for r in report.rows if not (r.diff_ok and r.t_ok and r.analytic_ok)]
        raise InvariantFailure("power bounds exceeded", failing)
    print(f"power bounds hold for k <= {args.powers} (p = {args.p})")
    return 0


def _cmd_semigroup(args) -> int:
    from .construction import assemble_operator
    from .semigroup import LOG_METHOD, ROUNDTRIP_TOL, bounded_along, lift_report, principal_log

    cons, fibers = load_construction(args.construction)
    op = assemble_operator(cons, fibers)
    sg = principal_log(op)
    lift = lift_report(sg, cons.seq, args.powers, cons.powers)
    out_dir = Path(args.out_dir)
    payload = {
        "config": {
            "construction": str(args.construction),
            "real_sequence": None if args.real_sequence is None else str(args.real_sequence),
            "powers": args.powers,
            "fibers": fibers,
        },
        "lift": lift,
    }
    checks = {
        "lattice": lift["lattice"]["all_ok"],
        "spectrum": lift["spectrum"]["all_ok"],
        "roundtrip": sg.roundtrip_error <= ROUNDTRIP_TOL,
        "shift_norm_below_third": lift["shift_norm_below_third"],
    }
    if args.real_sequence is not None:
        rseq = load_sequence(args.real_sequence)
        bounded = bounded_along(sg, rseq, min(args.powers, len(rseq)))
        payload["bounded"] = bounded.to_json_dict()
        checks["bounded"] = bounded.all_ok
    payload["checks"] = checks
    _emit_report(out_dir, args.command, payload)
    _write_csv(out_dir / "generator.csv", ("row", "col", "re", "im"), sg.generator_csv_rows())
    if not all(checks.values()):
        raise InvariantFailure("semigroup lift checks failed", {"checks": checks, "lift": lift})
    print(f"lift ok ({LOG_METHOD}); lattice and spectrum checks pass for P = {args.powers}")
    return 0


def _starnorm_bound(seq, args):
    from .starnorm import ExpSpan, verify_translation_bound

    count = 3 if args.count is None else args.count
    if count < 1:
        raise ConfigInvalid(f"sample count {count} must be >= 1")
    rng = random.Random(args.seed)
    freqs = [rng.uniform(0.1, 4.0) for _ in range(2 * count)]
    samples = []
    for i in range(count):
        samples.append(ExpSpan(((1.0 + 0.0j, freqs[2 * i]),)))
        samples.append(ExpSpan((
            (1.0 + 0.0j, freqs[2 * i]),
            (-1.0 + 0.0j, freqs[2 * i + 1]),
        )))
    P = min(args.K, len(seq))
    report = verify_translation_bound(seq, samples, J=args.J, K=args.K, P=P)
    rows = [
        (r.sample, r.k, r.n_k, r.left, r.right, r.ratio, r.asserted, r.ok)
        for r in report.rows
    ]
    return report.to_json_dict(), report.all_ok, (
        "translation.csv",
        ("sample", "k", "n_k", "shifted_norm", "reference_norm", "ratio", "asserted", "ok"),
        rows,
    )


def _starnorm_pairs(seq, args):
    from .starnorm import dj_bound_checks

    count = 10 if args.count is None else args.count
    if count < 1:
        raise ConfigInvalid(f"sample count {count} must be >= 1")
    rng = random.Random(args.seed)
    pairs = []
    for _ in range(count):
        eta, xi = sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)))
        if xi - eta < 1e-6:
            xi = eta + 0.5
        pairs.append((eta, xi))
    reports = dj_bound_checks(pairs, seq, args.J, args.K)
    rows = [
        (rep.eta, rep.xi, row.j, row.value, row.bound, row.method, row.ok)
        for rep in reports
        for row in rep.rows
    ]
    payload = {"pairs": [rep.to_json_dict() for rep in reports]}
    ok = all(rep.all_ok for rep in reports)
    return payload, ok, (
        "pairs.csv",
        ("eta", "xi", "j", "value", "bound", "method", "ok"),
        rows,
    )


def _starnorm_field(seq, args):
    from .starnorm import eigenfield_modulus

    count = 6 if args.count is None else args.count
    if count < 2:
        raise ConfigInvalid(f"field mode needs at least 2 frequencies, got {count}")
    rng = random.Random(args.seed)
    freqs = sorted(rng.uniform(0.05, 3.0) for _ in range(count))
    table = eigenfield_modulus(seq, freqs, J=args.J, K=args.K)
    return table.to_json_dict(), table.all_ok, (
        "field.csv",
        ("eta", "xi", "base", "d_metric", "star_searched", "star_upper", "ratio"),
        table.csv_rows(),
    )


def _cmd_starnorm(args) -> int:
    seq = load_sequence(args.sequence)
    # each mode imports what it uses, then draws its samples from --seed
    handler = {"bound": _starnorm_bound, "pairs": _starnorm_pairs, "field": _starnorm_field}[args.mode]
    result, ok, (csv_name, header, rows) = handler(seq, args)
    out_dir = Path(args.out_dir)
    _emit_report(out_dir, args.command, {
        "config": {
            "sequence": str(args.sequence),
            "mode": args.mode,
            "J": args.J,
            "K": args.K,
            "seed": args.seed,
            "count": args.count,
        },
        "result": result,
    })
    _write_csv(out_dir / csv_name, header, rows)
    if not ok:
        raise InvariantFailure(f"starnorm {args.mode} checks failed", result)
    print(f"starnorm {args.mode} ok")
    return 0


_SUMMARY_KEYS = ("status", "certified", "verdict", "all_ok", "level", "predicate")


def _cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    if not out_dir.is_dir():
        raise ConfigInvalid(f"{out_dir} is not a directory")
    artifacts = []
    for path in sorted(out_dir.glob("*.json")):
        if path.name == "report.json":
            continue
        entry = {"file": path.name}
        try:
            obj = read_json(path)
        except ConfigInvalid:
            entry["readable"] = False
        else:
            entry["readable"] = True
            if "command" in obj:
                entry["command"] = obj["command"]
            summary = {k: obj[k] for k in _SUMMARY_KEYS if k in obj}
            if summary:
                entry["summary"] = summary
        artifacts.append(entry)
    payload = {
        "config": {"out_dir": str(args.out_dir)},
        "artifacts": artifacts,
        "csv_tables": sorted(p.name for p in out_dir.glob("*.csv")),
    }
    _emit_report(out_dir, args.command, payload)
    print(f"indexed {len(artifacts)} artifacts, {len(payload['csv_tables'])} tables")
    return 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "semigroup": _cmd_semigroup,
    "starnorm": _cmd_starnorm,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except JamisonError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        if exc.dump is not None:
            json.dump(exc.dump, sys.stderr, indent=2, default=str)
            print(file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
