"""Exception types shared across the package, and the one table of exit codes.

Everything raised on purpose derives from :class:`JamisonError`, so callers can
catch one base class at API boundaries.  Each type carries the exit code and
the stderr label the CLI reports it with: 1 "config error" for input the user
got wrong, 3 "infeasible" for a construction search that proved infeasible,
and 2 for everything else, a failed invariant or a corrupt artifact.
"""

from __future__ import annotations


class JamisonError(Exception):
    """Base class for all package-specific errors: a failed check, exit code 2 unless a subclass says otherwise."""

    exit_code = 2
    label = "invariant failure"
    dump = None  # JSON-able rows printed to stderr after the message


class _BadInput(JamisonError):
    """The user asked for something invalid; no computation went wrong."""

    exit_code = 1
    label = "config error"


class InvariantFailure(JamisonError):
    """A checked invariant came out false; carries the rows for the stderr dump."""

    def __init__(self, message: str, dump):
        super().__init__(message)
        self.dump = dump


class ConfigInvalid(_BadInput):
    """A config dataclass or CLI argument set fails validation."""


# --- sequence / separation errors -------------------------------------------


class HorizonExceedsSequence(_BadInput):
    """A requested horizon K is past the end of the stored sequence."""


class InvalidResolution(ConfigInvalid):
    """Resolution, the width of a certified separation interval, must lie in (0, 1/2), not below the double spacing at 1/2."""


class InvalidEta(ConfigInvalid):
    """Near-return threshold must be positive and finite, with a finite reciprocal."""


class EmptyHorizons(ConfigInvalid):
    """Classification was given an empty list of horizons."""


class OutOfDomain(JamisonError):
    """A torus angle or arc argument lies outside the expected range."""


class PreconditionViolated(_BadInput):
    """An input sequence breaks a documented precondition (monotone, first term 1, ...)."""


class DegenerateInput(JamisonError):
    """An input collapses a computation (empty family, zero-length arc, ...)."""


# --- construction errors -----------------------------------------------------


class InvalidIndex(JamisonError):
    """Fiber bookkeeping is defined for coordinates n >= 2 only."""


class BudgetInfeasible(JamisonError):
    """No candidate point satisfies every budget predicate at some level.

    Carries the failing level and the name of the first predicate that could
    not be met, so callers (and the CLI) can report where a sequence resists
    the construction.
    """

    exit_code = 3
    label = "infeasible"

    def __init__(self, level: int, predicate: str, detail: str = ""):
        self.level = level
        self.predicate = predicate
        msg = f"level {level}: predicate {predicate!r} infeasible"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class WeightListTooShort(ConfigInvalid):
    """Fewer weights supplied than the construction depth requires."""


class IndexOutOfRange(_BadInput):
    """Row/level index outside the operator's finite section."""


class BudgetsNotCertified(_BadInput):
    """verify/serialize called on a construction whose budgets never passed."""


class ArtifactCorrupt(JamisonError):
    """A stored artifact fails its load-time integrity recomputation."""

    label = "artifact integrity failure"


# --- linear-algebra errors ---------------------------------------------------


class SizeMismatch(JamisonError):
    """Operands have incompatible shapes."""


class NonSquare(JamisonError):
    """A square matrix was required."""


class SpectrumOutsideDomain(_BadInput):
    """An eigenvalue falls outside the right half-plane cut needed for the log."""
