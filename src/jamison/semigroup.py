"""Continuous-parameter lift of a truncated shift-plus-rotation operator.

A certified operator T from the construction module is a direct sum of
upper-bidiagonal fiber blocks whose unimodular diagonal entries carry exact
rational angles on a short arc in the right half plane, well clear of the
branch cut of the principal logarithm.  Every check runs on fiber 1's block,
whose norms are the operator's, and every output lists it alone.  This
module computes G = Log T, exposes the one-parameter family t -> exp(tG),
and provides checks that the family agrees with integer powers of T on the
index sequence, stays bounded along real sequences, and has purely imaginary
generator spectrum.  Each check hands all its times to the kernel at once
(evolve takes a vector).

T is its exact angles and fiber 1's band (TruncatedOperator).  T^n, Log T
and exp(tG) all come from the exact-phase kernel of the funm module on the
operator's one node set, as functions of the unit-band block J; a function
of T is that times the band products, which no check divides by.  exp(tG) is
formed from T itself, as exp of t times the log series; Log J is read by the
roundtrip check exp(Log J) = J, and G = Log J times the products by the
spectrum check, which expects i times the exact angles in radians.  The
module needs numpy alone.
"""

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

# matrix_power stays bound here as well: the benchmark tracer patches every
# binding of it and checks this one.
from .construction import FIBER_DECAY, TruncatedOperator, matrix_power, operator_norm  # noqa: F401
from .errors import (
    HorizonExceedsSequence,
    OutOfDomain,
    PreconditionViolated,
    SpectrumOutsideDomain,
)
from .funm import ExpLog, Log, Power, apply, clusters, exact_time, exp_shifted
from .sequences import IndexSequence, turns_to_radians, unit_point

LOG_METHOD = "exact-phase-divided-differences"
UNIT_GRID_POINTS = 64
BOUNDED_TOL = 1e-6  # relative slack of the floor-power bound in bounded_along
SPECTRUM_TOL = 1e-9  # largest real part and deviation a generator eigenvalue may show
ROUNDTRIP_TOL = 1e-10  # largest roundtrip_error a lift may show
LATTICE_TOL = 1e-8  # largest lattice rel_err a power n_k may show
_SIXTH = Fraction(1, 6)  # largest |signed angle| (turns) principal_log accepts: Re lambda >= 1/2


@dataclass(frozen=True)
class MatrixSemigroup:
    """One-parameter matrix family exp(tG) with G the principal log of T."""

    base: TruncatedOperator
    unit_log: np.ndarray  # (levels, levels): Log J, the log's divided differences over fiber 1's nodes
    log_clusters: int  # Taylor clusters in the log; 1 means no divided-difference step
    roundtrip_error: float

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """G = Log T of fiber 1's block: unit_log times the operator's band products."""
        G = self.unit_log * self.base.products
        G.flags.writeable = False
        return G

    @functools.cached_property
    def log_blocks(self) -> dict:
        """Each cluster's log block and its powers, by its levels, as evolve's times form them (funm.ExpLog)."""
        return {}

    @property
    def dim(self) -> int:
        return self.base.levels * self.base.fibers

    def to_json_dict(self) -> dict:
        return {
            "levels": self.base.levels,
            "fibers": self.base.fibers,
            "fiber_decay": FIBER_DECAY,
            "dim": self.dim,
            "method": LOG_METHOD,
            "log_clusters": self.log_clusters,
            "roundtrip_error": self.roundtrip_error,
        }

    def generator_csv_rows(self):
        """(row, col, re, im) of fiber 1's L x L generator, row by row.

        Fiber i's block is these entries times fiber_decay**((i-1)(col-row))
        above the diagonal, so with fibers and fiber_decay they stand for the
        whole direct sum.
        """
        for r, row in enumerate(self.generator.tolist()):
            for c, z in enumerate(row):
                yield r, c, z.real, z.imag


def principal_log(op: TruncatedOperator) -> MatrixSemigroup:
    """Principal matrix logarithm of fiber 1's block; every other fiber's is its rescaling.

    Every signed level angle must lie within 1/6 turn of 0, so every
    diagonal entry has real part at least 1/2, which keeps the spectrum
    inside the domain where the principal branch is analytic; the exact
    angles decide it.  The nodes go through the exact-phase kernel with
    f = Log; a defective block (a repeated diagonal coupled through the band)
    is an ordinary cluster.  roundtrip_error checks the result against J.
    """
    worst = max(op.nodes.thetas, key=abs)
    if abs(worst) > _SIXTH:
        raise SpectrumOutsideDomain(
            f"level angle {worst} turns lies more than 1/6 turn from 0 (real part below 1/2); "
            "principal branch unsafe"
        )
    (D,) = apply(op.nodes, [Log()])
    D.flags.writeable = False
    log_clusters = len(set(clusters(op.nodes, 1)))
    return MatrixSemigroup(base=op, unit_log=D, log_clusters=log_clusters, roundtrip_error=roundtrip_error(op, D))


def _relative_error(got: np.ndarray, want: np.ndarray, products: np.ndarray) -> float:
    """The larger of two relative 2-norm distances of divided differences got from want.

    One is taken on the functions of T, got and want times the band
    products; the other on the divided differences themselves.  The products
    fall to 1e-16 and below past level 1, so relative to the norm of the
    function of T an error deep in the band is invisible; among the divided
    differences the deep entries count against their own size, but at large
    powers the corner (1, L), about C(n, L-1), outweighs the entries near the
    diagonal.  No product is divided by, so one that underflows hides only
    its own entry, and from the first measure alone.
    """
    return max(
        operator_norm((got - want) * scale, 2) / max(operator_norm(want * scale, 2), 1e-300)
        for scale in (products, 1.0)
    )


def roundtrip_error(op: TruncatedOperator, unit_log: np.ndarray) -> float:
    """exp(Log J) against J, in _relative_error's measure: the check that reads the log.

    J is the unit-band block on op's exact angles, and exp(Log J) one Taylor
    sum of unit_log shifted by the mid angle sigma of the nodes.
    principal_log requires every signed angle within 1/6 turn of 0, so each
    lies within 1/6 turn of sigma and no clusters are needed.
    """
    thetas = op.nodes.thetas
    sigma = (min(thetas) + max(thetas)) / 2
    J = np.diag([unit_point(theta) for theta in thetas]) + np.eye(len(thetas), k=1)
    Y = unit_log - Log().value(sigma) * np.eye(len(thetas))
    return _relative_error(exp_shifted(Y, sigma, Fraction(1)), J, op.products)


def unit_evolve(sg: MatrixSemigroup, times) -> np.ndarray:
    """exp(t Log J) for each t of times, stacked: the divided differences of exp(t Log z) over fiber 1's nodes.

    Within each cluster at scale t it is the exp series of t times the
    cluster's log series, whose block and powers are formed once per node
    run; across clusters it is the kernel's recurrence on the exact values
    e^(2 pi i t theta).  All times go to the kernel in one call.  It does not
    read unit_log, which roundtrip_error checks.
    """
    for t in times:
        if not math.isfinite(float(t)) or t < 0:
            raise OutOfDomain(f"time parameter must be finite and >= 0, got {t}")
    out = apply(sg.base.nodes, [ExpLog(exact_time(t), sg.log_blocks) for t in times])
    for t, M in zip(times, out):
        if not np.all(np.isfinite(M)):
            raise OutOfDomain(f"matrix exponential overflowed at t={t}")
    return out


def evolve(sg: MatrixSemigroup, times) -> np.ndarray:
    """exp(t Log T) for each t of times, from T itself: unit_evolve times the operator's band products."""
    return unit_evolve(sg, times) * sg.base.products


@dataclass(frozen=True)
class LatticeRow:
    k: int
    n_k: int
    rel_err: float
    ok: bool


@dataclass(frozen=True)
class LatticeReport:
    tol: float
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def check_lattice(sg: MatrixSemigroup, seq: IndexSequence, P: int, powers=()) -> LatticeReport:
    """Agreement of the continuous family with integer powers along seq.

    The two sides share the exact phases and the kernel's recurrence between
    clusters, but not the arithmetic within a cluster: T^n is the binomial
    series sigma^n sum_j C(n, j) A^j in the shifted unit-band block A, while
    evolve's exp(nG) is sigma^n sum_j (n Y)^j / j! in the cluster's log block
    Y, which came out of the log series.  The recurrence is checked against
    mpmath oracles instead.  Both sides are compared as divided differences;
    rel_err is _relative_error's: the larger of the relative errors with and
    without the band products, and a row passes at most LATTICE_TOL.

    powers holds J^(n_k) for a prefix of k, as a ShiftConstruction on the
    same angles and seq holds them (its powers); the kernel forms the rest.
    Each side is one kernel call at most.
    """
    if seq.kind != "integer":
        raise PreconditionViolated("lattice check needs an integer sequence")
    if not 1 <= P <= len(seq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(seq)}")
    terms = seq.terms[:P]
    want = powers[:P]
    if len(want) < P:
        want = [*want, *apply(sg.base.nodes, [Power(n) for n in terms[len(want):]])]
    rows = []
    for k, (n_k, got, Jn) in enumerate(zip(terms, unit_evolve(sg, terms), want), 1):
        err = _relative_error(got, Jn, sg.base.products)
        rows.append(LatticeRow(k, n_k, err, err <= LATTICE_TOL))
    return LatticeReport(LATTICE_TOL, tuple(rows))


def unit_interval_sup(sg: MatrixSemigroup):
    """Grid maximum of ||exp(sG)|| over [0,1] plus a Lipschitz certificate.

    The derivative bound ||G|| e^{||G||} turns the grid max into a bound on
    the true supremum within half a grid step times that constant.
    """
    norm_G = operator_norm(sg.generator, 2)
    grid = np.linspace(0.0, 1.0, UNIT_GRID_POINTS)
    grid_max = operator_norm(evolve(sg, grid), 2)  # a stack's norm is its largest
    half_step = 0.5 * (grid[1] - grid[0])
    slack = norm_G * math.exp(norm_G) * half_step
    return grid_max, grid_max + slack


@dataclass(frozen=True)
class BoundedRow:
    k: int
    t_k: float
    floor_n: int
    norm_at_t: float
    norm_at_floor: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class BoundedReport:
    grid_sup: float
    certified_sup: float
    sup_along: float
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def bounded_along(sg: MatrixSemigroup, realseq: IndexSequence, P: int) -> BoundedReport:
    """Norms along a real sequence against the floor-power factorization.

    Writing t = n + s with n the integer part and s in [0,1), the family
    factorizes as exp(sG) exp(nG), so the norm at t is controlled by the
    unit-interval supremum times the norm at n.  All 2P times go to one
    evolve call.

    Rows are judged against grid_sup, which is at most certified_sup.  So a
    row that passes against the grid passes against the certified supremum
    as well, while a row that fails is not a proven violation: the true
    supremum may lie off the grid, up to certified_sup.
    """
    if not 1 <= P <= len(realseq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(realseq)}")
    grid_sup, certified_sup = unit_interval_sup(sg)
    times = [float(t) for t in realseq.terms[:P]]
    floors = [int(math.floor(t)) for t in times]
    at = evolve(sg, times + floors)
    rows = []
    sup_along = 0.0
    for k, (t_k, n_k) in enumerate(zip(times, floors), 1):
        norm_t = operator_norm(at[k - 1], 2)
        norm_floor = operator_norm(at[P + k - 1], 2)
        bound = grid_sup * norm_floor * (1.0 + BOUNDED_TOL)
        sup_along = max(sup_along, norm_t)
        rows.append(BoundedRow(k, t_k, n_k, norm_t, norm_floor, bound, norm_t <= bound))
    return BoundedReport(grid_sup, certified_sup, sup_along, tuple(rows))


@dataclass(frozen=True)
class SpectrumRow:
    expected_imag: float
    real_part: float
    imag_part: float
    deviation: float


@dataclass(frozen=True)
class SpectrumReport:
    max_real_part: float
    max_deviation: float
    tol: float
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return self.max_real_part <= self.tol and self.max_deviation <= self.tol

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def generator_spectrum_check(sg: MatrixSemigroup) -> SpectrumReport:
    """Generator eigenvalues against i times the exact level angles in radians.

    Each level's signed exact angle contributes 2 pi theta; fiber 1's
    generator spectrum must match that multiset and carry no real part beyond
    roundoff.
    """
    expected = [turns_to_radians(theta) for theta in sorted(sg.base.nodes.thetas)]
    eigs = sorted(np.linalg.eigvals(sg.generator), key=lambda z: z.imag)
    rows = [
        SpectrumRow(want, float(z.real), float(z.imag), float(abs(z - 1j * want))) for want, z in zip(expected, eigs)
    ]
    max_real = max([0.0] + [abs(r.real_part) for r in rows])
    max_dev = max([0.0] + [r.deviation for r in rows])
    return SpectrumReport(max_real, max_dev, SPECTRUM_TOL, tuple(rows))


def lift_report(sg: MatrixSemigroup, seq: IndexSequence, P: int, powers=()) -> dict:
    """Bundle the standard checks into one JSON-ready summary; powers as check_lattice takes them."""
    lattice = check_lattice(sg, seq, P, powers)
    spectrum = generator_spectrum_check(sg)
    shift_norm = operator_norm(sg.base.shift_part(), 2)
    return {
        "semigroup": sg.to_json_dict(),
        "lattice": lattice.to_json_dict(),
        "spectrum": spectrum.to_json_dict(),
        "shift_norm_2": shift_norm,
        "shift_norm_below_third": shift_norm < 1.0 / 3.0,
    }
