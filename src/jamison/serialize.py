"""JSON persistence for sequences and constructions.

Eigenvalue angles are written in two forms: an exact numerator/denominator
string, which is authoritative, and a 30-significant-digit decimal rendering
for human inspection.  Plain decimal storage would destroy the deep-level
placement (parent gaps shrink past 1e-20 by level 5), so the loader rebuilds
every construction from the exact angles, the weights and each level's
measured budget values, from which the flags follow, and re-renders every
stored field; any disagreement means the file was edited or truncated and
raises :class:`ArtifactCorrupt`.
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
from .sequences import IndexSequence, TorusPoint

# The construction module loads only when a construction is read back, so
# commands that handle sequences alone do not pay for importing it.
if TYPE_CHECKING:
    from .construction import ShiftConstruction

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
    """The construction file's payload; the loader checks every key it writes."""
    check_fibers(fibers)
    return {
        "sequence": cons.seq.to_json_dict(),
        "horizon": cons.horizon,
        "thetas": [p.theta for p in cons.lambdas],
        "thetas_float": [p.as_float() for p in cons.lambdas],
        "thetas_decimal": [decimal_string(p.theta) for p in cons.lambdas],
        "weights": list(cons.weights),
        "gaps": list(cons.gaps),
        "alphas_fiber1": list(cons.alphas1),
        "nuclear_partial_sum": cons.nuclear_partial_sum,
        "certified": cons.certified,
        "budgets": [dict(vars(b)) for b in cons.budgets],  # flat records; asdict would deep-copy each field
        "fibers": int(fibers),
    }


def save_construction(cons: ShiftConstruction, path, fibers: int = 2) -> None:
    write_json(path, construction_to_json_dict(cons, fibers))


# The values of a level's budget that no angle or weight determines.
_MEASURED = ("eigvec_a", "eigvec_b", "tail_max", "eta_used")
_json_text = partial(json.dumps, sort_keys=True, default=_json_default)


def construction_from_json_dict(obj: dict) -> tuple:
    """Rebuild (construction, fibers) from a stored payload and check integrity.

    The record is rebuilt from what was chosen (sequence, exact angles,
    weights w_1..w_{L-1}, horizon, fibers) and what was measured, the four
    values of _MEASURED per level; the record judges its own budgets from
    those.  Every key that construction_to_json_dict writes for it must
    equal the stored key as JSON text (doubles round-trip exactly; NaN and
    Infinity compare equal), so an edited, appended or truncated artifact
    cannot reach verification.
    """
    from .construction import ShiftConstruction

    try:
        stored_budgets = obj["budgets"]
        cons = ShiftConstruction(
            seq=IndexSequence.from_json_dict(obj["sequence"]),
            lambdas=tuple(TorusPoint(fraction_from_string(s)) for s in obj["thetas"]),
            weights=obj["weights"],
            horizon=int(obj["horizon"]),
            measured=tuple(tuple(float(b[k]) for k in _MEASURED) for b in stored_budgets),
        )
        cons.budgets  # judged inside the try: a malformed file is a config error, not a traceback
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"bad construction payload: {exc!r}") from exc
    if len(stored_budgets) != cons.levels - 1:
        raise ArtifactCorrupt(f"'budgets' holds {len(stored_budgets)} records for {cons.levels} levels")
    fibers = obj.get("fibers", 2)
    if isinstance(fibers, bool) or not isinstance(fibers, int) or not 1 <= fibers <= MAX_FIBERS:
        raise ConfigInvalid(
            f"bad construction payload: fibers must be a positive integer at most {MAX_FIBERS}, got {fibers!r}"
        )

    stored = {**obj, "fibers": fibers}
    for key, value in construction_to_json_dict(cons, fibers).items():
        if _json_text(value) != _json_text(stored.get(key)):
            raise ArtifactCorrupt(f"stored {key!r} differs from the record rebuilt from the angles and measurements")
    return cons, fibers


def load_construction(path) -> tuple:
    """Load (construction, fibers) from disk; see construction_from_json_dict."""
    return construction_from_json_dict(read_json(path))
