"""JSON persistence for sequences and constructions.

Eigenvalue angles are written in two forms: an exact numerator/denominator
string, which is authoritative, and a 30-significant-digit decimal rendering
for human inspection.  Plain decimal storage would destroy the deep-level
placement (parent gaps shrink past 1e-20 by level 5), so the loader rebuilds
every construction from the exact angles and then recomputes the gap and
shift-weight tables; any disagreement with the stored floats means the file
was edited or truncated and raises :class:`ArtifactCorrupt`.
"""

from __future__ import annotations

import json
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArtifactCorrupt, ConfigInvalid
from .sequences import IndexSequence, TorusPoint

# The construction module loads only when a construction is read back, so
# commands that handle sequences alone do not pay for importing it.
if TYPE_CHECKING:
    from .construction import LevelBudget, ShiftConstruction

DECIMAL_DIGITS = 30
# Largest fiber truncation I a construction file may carry.  The operator
# holds I L x L blocks, so the bound keeps a hand-edited count from heading
# for gigabytes before any check runs.
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


def save_sequence(seq: IndexSequence, path) -> None:
    write_json(path, seq.to_json_dict())


def load_sequence(path) -> IndexSequence:
    return IndexSequence.from_json_dict(read_json(path))


# --- constructions -----------------------------------------------------------


def check_fibers(fibers: int) -> None:
    """Refuse a fiber truncation I outside 1..MAX_FIBERS."""
    if not 1 <= fibers <= MAX_FIBERS:
        raise ConfigInvalid(f"fiber count {fibers} must be between 1 and {MAX_FIBERS}")


def construction_to_json_dict(cons: ShiftConstruction, fibers: int = 2) -> dict:
    """Serializable payload: the construction's own dict plus exact-angle extras."""
    check_fibers(fibers)
    obj = cons.to_json_dict()
    obj["thetas_decimal"] = [decimal_string(p.theta) for p in cons.lambdas]
    obj["fibers"] = int(fibers)
    return obj


def save_construction(cons: ShiftConstruction, path, fibers: int = 2) -> None:
    write_json(path, construction_to_json_dict(cons, fibers))


def _budget_from_dict(obj: dict) -> LevelBudget:
    from .construction import LevelBudget

    kwargs = {f.name: obj[f.name] for f in fields(LevelBudget)}
    if kwargs["delta"] is not None:
        kwargs["delta"] = fraction_from_string(kwargs["delta"])
    return LevelBudget(**kwargs)


def construction_from_json_dict(obj: dict) -> tuple:
    """Rebuild (construction, fibers) from a stored payload and check integrity.

    The exact angles and the weights are the source of truth.  The gap,
    shift-weight and nuclear tables the construction derives from them are
    compared bit-for-bit against the stored floats (JSON round-trips doubles
    exactly), so a corrupted or hand-edited artifact cannot slip through into
    verification.
    """
    from .construction import ShiftConstruction

    try:
        cons = ShiftConstruction(
            seq=IndexSequence.from_json_dict(obj["sequence"]),
            lambdas=tuple(TorusPoint(fraction_from_string(s)) for s in obj["thetas"]),
            weights=tuple(obj["weights"]),
            horizon=int(obj["horizon"]),
            budgets=tuple(_budget_from_dict(b) for b in obj["budgets"]),
        )
        stored_gaps = tuple(float(g) for g in obj["gaps"])
        stored_alphas = tuple(float(a) for a in obj["alphas_fiber1"])
        stored_floats = [float(x) for x in obj["thetas_float"]]
        stored_certified = bool(obj["certified"])
        stored_nuclear = float(obj["nuclear_partial_sum"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad construction payload: {exc!r}") from exc
    fibers = obj.get("fibers", 2)
    if isinstance(fibers, bool) or not isinstance(fibers, int) or not 1 <= fibers <= MAX_FIBERS:
        raise ConfigInvalid(
            f"bad construction payload: fibers must be a positive integer at most {MAX_FIBERS}, got {fibers!r}"
        )

    if stored_gaps != cons.gaps:
        raise ArtifactCorrupt("stored gap table differs from recomputation over exact angles")
    if stored_alphas != cons.alphas1:
        raise ArtifactCorrupt("stored shift-weight table differs from recomputation")
    if stored_floats != [p.as_float() for p in cons.lambdas]:
        raise ArtifactCorrupt("stored float angles differ from the exact angles")
    if stored_certified != cons.certified:
        raise ArtifactCorrupt("stored certification flag contradicts the budget records")
    if stored_nuclear != cons.nuclear_partial_sum:
        raise ArtifactCorrupt("stored nuclear partial sum differs from recomputation")
    return cons, fibers


def load_construction(path) -> tuple:
    """Load (construction, fibers) from disk; see construction_from_json_dict."""
    return construction_from_json_dict(read_json(path))
