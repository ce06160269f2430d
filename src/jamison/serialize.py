"""JSON persistence for sequences and constructions.

Eigenvalue angles are written in two forms: an exact numerator/denominator
string, which is authoritative, and a 30-significant-digit decimal rendering
for human inspection.  Plain decimal storage would destroy the deep-level
placement (parent gaps shrink past 1e-20 by level 5), so the loader rebuilds
every construction from the exact angles, the weights and the horizon,
measures every level's budget again, and re-renders every stored field; any
disagreement means the file was edited or truncated and raises
:class:`ArtifactCorrupt`.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArtifactCorrupt, ConfigInvalid
from .sequences import IndexSequence

# The construction module loads only when a construction is read back, so
# commands that handle sequences alone do not pay for importing it.
if TYPE_CHECKING:
    from .construction import ShiftConstruction

DECIMAL_DIGITS = 30
# Largest fiber truncation I a construction file may carry.  Every norm and
# every output is fiber 1's, so I sizes nothing; the cap keeps I where
# verify's FIBER_DECAY ** I evaluates (0.5 ** 10**400 raises OverflowError).
MAX_FIBERS = 4096


def decimal_string(frac: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Decimal rendering of an exact rational, rounded to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(frac.numerator) / Decimal(frac.denominator))


def fraction_from_string(text: str) -> Fraction:
    """Parse the exact 'p/q' (or integer) form used in stored artifacts."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad rational literal {text!r}: {exc}") from exc


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    # numpy scalars: bools and ints are not subclasses of their Python kin
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> None:
    """Write a payload with sorted keys so identical runs give identical bytes.

    The text streams into the file rather than being built whole in memory.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def read_json(path) -> dict:
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{p}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{p}: expected a JSON object at top level")
    return obj


# --- sequences ---------------------------------------------------------------


def load_sequence(path) -> IndexSequence:
    return IndexSequence.from_json_dict(read_json(path))


# --- constructions -----------------------------------------------------------


def check_fibers(fibers: int) -> None:
    """Refuse a fiber truncation I outside 1..MAX_FIBERS."""
    if not 1 <= fibers <= MAX_FIBERS:
        raise ConfigInvalid(f"fiber count {fibers} must be between 1 and {MAX_FIBERS}")


def construction_to_json_dict(cons: ShiftConstruction, fibers: int = 2) -> dict:
    """The construction file's payload; the loader checks every key it writes."""
    check_fibers(fibers)
    return {
        "sequence": cons.seq.to_json_dict(),
        "horizon": cons.horizon,
        "thetas": list(cons.lambdas),
        "thetas_float": [float(p) for p in cons.lambdas],
        "thetas_decimal": [decimal_string(p) for p in cons.lambdas],
        "weights": list(cons.weights),
        "gaps": list(cons.gaps),
        "alphas_fiber1": list(cons.alphas1),
        "nuclear_partial_sum": cons.nuclear_partial_sum,
        # budgets before certified, so the loader names a forged level rather than the summary flag
        "budgets": [dict(vars(b)) for b in cons.budgets],  # flat records; asdict would deep-copy each field
        "certified": cons.certified,
        "fibers": int(fibers),
    }


def save_construction(cons: ShiftConstruction, path, fibers: int = 2) -> None:
    write_json(path, construction_to_json_dict(cons, fibers))


_json_text = partial(json.dumps, sort_keys=True, default=_json_default)


def _first_budget_difference(rebuilt: list, stored) -> str:
    """Where a one-record-per-level budget list first differs: the level, then the field in sorted order."""
    if not isinstance(stored, list) or len(stored) != len(rebuilt):
        return ""
    for mine, theirs in zip(rebuilt, stored):
        theirs = theirs if isinstance(theirs, dict) else {}
        for field in sorted(mine.keys() | theirs.keys()):
            if field not in mine or field not in theirs or _json_text(mine[field]) != _json_text(theirs[field]):
                return f" at level {mine['level']} {field!r}"
    return ""


def construction_from_json_dict(obj: dict) -> tuple:
    """Rebuild (construction, fibers) from a stored payload and check integrity.

    The record is rebuilt from what was chosen alone (sequence, exact
    angles, weights w_1..w_{L-1}, horizon, fibers); it measures and judges
    every level's budget again.  Every key that construction_to_json_dict
    writes for it must equal the stored key as JSON text (doubles
    round-trip exactly; NaN and Infinity compare equal), so an edited,
    appended or truncated artifact, a measured value forged together with
    its flag included, cannot reach verification.
    """
    from .construction import ShiftConstruction

    try:
        cons = ShiftConstruction(
            seq=IndexSequence.from_json_dict(obj["sequence"]),
            lambdas=tuple(fraction_from_string(s) for s in obj["thetas"]),
            weights=obj["weights"],
            horizon=int(obj["horizon"]),
        )
        cons.budgets  # measured inside the try: a malformed file is a config error, not a traceback
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(f"bad construction payload: {exc!r}") from exc
    fibers = obj.get("fibers", 2)
    if isinstance(fibers, bool) or not isinstance(fibers, int) or not 1 <= fibers <= MAX_FIBERS:
        raise ConfigInvalid(
            f"bad construction payload: fibers must be a positive integer at most {MAX_FIBERS}, got {fibers!r}"
        )

    stored = {**obj, "fibers": fibers}
    for key, value in construction_to_json_dict(cons, fibers).items():
        if _json_text(value) != _json_text(stored.get(key)):
            where = _first_budget_difference(value, stored.get(key)) if key == "budgets" else ""
            raise ArtifactCorrupt(f"stored {key!r} differs{where} from the record rebuilt from the chosen values")
    return cons, fibers


def load_construction(path) -> tuple:
    """Load (construction, fibers) from disk; see construction_from_json_dict."""
    return construction_from_json_dict(read_json(path))
