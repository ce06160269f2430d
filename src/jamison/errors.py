"""Exception types shared across the package.

Everything raised on purpose derives from :class:`JamisonError` so callers can
catch one base class at API boundaries (the CLI maps subclasses to exit codes).
"""

from __future__ import annotations


class JamisonError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(JamisonError):
    """A config dataclass or CLI argument set fails validation."""


# --- sequence / separation errors -------------------------------------------


class HorizonExceedsSequence(JamisonError):
    """A requested horizon K is past the end of the stored sequence."""


class InvalidResolution(ConfigInvalid):
    """Grid resolution must lie in (0, 1/2), not below the double spacing at 1/2, with at most 2^31 points."""


class InvalidEta(ConfigInvalid):
    """Near-return threshold must be positive and finite, with a finite reciprocal."""


class EmptyHorizons(ConfigInvalid):
    """Classification was given an empty list of horizons."""


class OutOfDomain(JamisonError):
    """A torus angle or arc argument lies outside the expected range."""


class PreconditionViolated(JamisonError):
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

    def __init__(self, level: int, predicate: str, detail: str = ""):
        self.level = level
        self.predicate = predicate
        msg = f"level {level}: predicate {predicate!r} infeasible"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class WeightListTooShort(ConfigInvalid):
    """Fewer weights supplied than the construction depth requires."""


class IndexOutOfRange(JamisonError):
    """Row/level index outside the operator's finite section."""


class NegativeDegree(JamisonError):
    """Symmetric-sum degree must be non-negative."""


class BudgetsNotCertified(JamisonError):
    """verify/serialize called on a construction whose budgets never passed."""


class ArtifactCorrupt(JamisonError):
    """A stored artifact fails its load-time integrity recomputation."""


# --- linear-algebra errors ---------------------------------------------------


class SizeMismatch(JamisonError):
    """Operands have incompatible shapes."""


class NonSquare(JamisonError):
    """A square matrix was required."""


class SpectrumOutsideDomain(JamisonError):
    """An eigenvalue falls outside the right half-plane cut needed for the log."""
