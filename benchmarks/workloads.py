"""Seeded inputs and operation lists of the two benchmark workloads.

A workload is a list of ``jamison`` CLI invocations over generated input
files.  The program only ever sees those files and the flags below; every
value that depends on the workload seed (the starnorm ``--seed`` and the
fractional offsets of the real-time sequence) is derived here.

Paths in an op's argv are templates: ``{in}`` is the input directory and
``{out}`` the pass directory; each op writes its artifacts to
``{out}/<op id>``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolve(self, in_dir: Path, out_dir: Path) -> list:
        """Concrete argv, with the op's own ``--out-dir`` appended."""
        argv = [a.format(**{"in": in_dir, "out": out_dir}) for a in self.argv]
        return argv + ["--out-dir", str(out_dir / self.id)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    inputs: dict  # file name -> sequence payload


def _factorials(count: int) -> list:
    return [math.factorial(k) for k in range(1, count + 1)]


def _seq(terms, kind: str = "integer") -> dict:
    return {"kind": kind, "terms": list(terms)}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _construct(tag: str, levels: int) -> Op:
    return Op(f"construct-{tag}", (
        "construct", "--sequence", "{in}/factorials.json", "--levels", str(levels),
        "--horizon", str(levels), "--fibers", "2", "--out", "{out}/" + tag + ".json",
    ))


def depth_ladder(seed: int, size: str = "full") -> Workload:
    levels = (8, 9, 10) if size == "full" else (5, 6)
    rng = _rng("depth-ladder", seed)
    # t_1 = 1, t_k = k! + u_k with u_k uniform in [0, 1): strictly increasing reals
    real = [1.0] + [math.factorial(k) + rng.random() for k in range(2, 13)]
    ops = []
    for L in levels:
        tag = f"L{L}"
        # The first rung verifies with the exact p = inf norm, the others by
        # power iteration for p = 2, so both norm routes are timed.
        p = "inf" if L == levels[0] else "2"
        ops += [
            _construct(tag, L),
            Op(f"verify-{tag}", ("verify", "--construction", "{out}/" + tag + ".json",
                                 "--p", p, "--powers", str(L))),
            Op(f"semigroup-{tag}", ("semigroup", "--construction", "{out}/" + tag + ".json",
                                    "--powers", str(L), "--real-sequence", "{in}/real.json")),
        ]
    return Workload(
        "depth-ladder",
        "the paper's scaling axis: depth L = 8, 9, 10 with n_K = L!; the length-n_K "
        "coefficient cascade dominates while matrices stay at most 20x20",
        tuple(ops),
        {"factorials.json": _seq(_factorials(12)), "real.json": _seq(real, "real")},
    )


def sequence_lab(seed: int, size: str = "full") -> Workload:
    full = size == "full"
    star_seed = str(_rng("sequence-lab", seed).randrange(2 ** 31))
    res = "1e-7" if full else "1e-4"
    int_count, int_h = (1000, "10,100,1000") if full else (100, "10,50,100")
    fact_h = "6,8,10" if full else "4,6,8"
    bound, pairs, field = (("3", "8"), ("6", "200"), ("3", "24")) if full else (("1", "2"), ("2", "5"), ("1", "3"))
    K = "12" if full else "6"
    ops = [
        Op("analyze-integers", ("analyze", "--sequence", "{in}/integers.json",
                                "--horizons", int_h, "--resolution", res)),
        Op("analyze-factorials", ("analyze", "--sequence", "{in}/factorials.json",
                                  "--horizons", fact_h, "--resolution", res)),
        Op("analyze-powers2", ("analyze", "--sequence", "{in}/powers2.json",
                               "--horizons", "4,8,12", "--resolution", res)),
    ]
    for mode, (J, count) in (("bound", bound), ("pairs", pairs), ("field", field)):
        ops.append(Op(f"starnorm-{mode}", (
            "starnorm", "--sequence", "{in}/factorials.json", "--mode", mode, "--J", J,
            "--K", K, "--count", count, "--seed", star_seed,
        )))
    return Workload(
        "sequence-lab",
        "separation scans and star-norm searches that never touch the construction, "
        "so sequences and starnorm changes show here and nowhere else",
        tuple(ops),
        {
            "integers.json": _seq(range(1, int_count + 1)),
            "factorials.json": _seq(_factorials(12)),
            "powers2.json": _seq(2 ** k for k in range(12)),
        },
    )


WORKLOADS = {"depth-ladder": depth_ladder, "sequence-lab": sequence_lab}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)


def write_inputs(workload: Workload, in_dir: Path) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    for fname, payload in workload.inputs.items():
        (in_dir / fname).write_text(json.dumps(payload), encoding="utf-8")
