"""Continuous-parameter lift of a truncated shift-plus-rotation operator.

A certified operator T from the construction module has unimodular diagonal
entries lying on a short arc in the right half plane, so its spectrum stays
well clear of the branch cut of the principal logarithm.  This module computes
G = Log T, exposes the one-parameter family t -> exp(tG), and provides checks
that the family agrees with integer powers of T on the index sequence, stays
bounded along real sequences, and has purely imaginary generator spectrum.
scipy.linalg is imported by the functions that call it, so importing this
module (and the CLI) loads no scipy.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .construction import TruncatedOperator, matrix_power, operator_norm
from .errors import (
    DegenerateSpectrum,
    HorizonExceedsSequence,
    OutOfDomain,
    PreconditionViolated,
    SpectrumOutsideDomain,
)
from .sequences import IndexSequence

EIG_COND_LIMIT = 1e8
UNIT_GRID_POINTS = 64


class _NoFloatEigenbasis(Exception):
    """Internal: repeated coupled diagonal entries leave no eigenbasis."""


def _bidiagonal_chain(diag: np.ndarray, band: np.ndarray, target: int) -> np.ndarray:
    """Eigenvector of an upper-bidiagonal block for its target-th diagonal entry.

    Solved backwards from the unit coordinate at the target level.  A repeated
    diagonal value only matters when the band actually transports weight onto
    it; in that case the block is defective and has no eigenbasis.
    """
    L = diag.shape[0]
    v = np.zeros(L, dtype=complex)
    v[target] = 1.0
    lam = diag[target]
    for q in range(target - 1, -1, -1):
        push = band[q] * v[q + 1]
        gap = lam - diag[q]
        if gap == 0:
            if push != 0:
                raise _NoFloatEigenbasis
            v[q] = 0.0
        else:
            v[q] = push / gap
    return v


def _fiber_log(sub: np.ndarray, allow_fallback: bool):
    """Principal log of one fiber block; returns (G, cond, method).

    Defective blocks (repeated diagonal coupled through the band, which
    happens in certified constructions once level gaps drop below the float
    resolution of the unit circle) count as infinitely ill conditioned and
    take the dense path, where the principal log remains well defined.
    """
    L = sub.shape[0]
    diag = np.diag(sub).copy()
    band = np.diag(sub, k=1)
    try:
        V = np.column_stack([_bidiagonal_chain(diag, band, t) for t in range(L)])
        if np.all(np.isfinite(V)):
            cond = float(np.linalg.cond(V))
        else:
            cond = math.inf
    except _NoFloatEigenbasis:
        if not allow_fallback:
            raise DegenerateSpectrum(
                "repeated diagonal value is coupled through the band; "
                "no eigenbasis exists at float resolution"
            ) from None
        V = None
        cond = math.inf
    if cond <= EIG_COND_LIMIT:
        log_diag = np.array([cmath.log(z) for z in diag])
        G = np.linalg.solve(V.T, (V * log_diag).T).T
        return G, cond, "eigendecomposition"
    if not allow_fallback:
        raise DegenerateSpectrum(
            f"eigenvector matrix condition {cond:.3e} exceeds {EIG_COND_LIMIT:.0e}"
        )
    from scipy.linalg import logm

    G = logm(sub)
    return np.asarray(G, dtype=complex), cond, "inverse-scaling-squaring"


@dataclass(frozen=True)
class MatrixSemigroup:
    """One-parameter matrix family exp(tG) with G the principal log of T."""

    base: TruncatedOperator
    generator: np.ndarray  # (fibers, levels, levels) stack, one log per fiber block
    eig_cond: float
    method: str
    roundtrip_error: float = field(default=math.nan)

    @property
    def dim(self) -> int:
        return self.base.levels * self.base.fibers

    def to_json_dict(self) -> dict:
        # non-finite condition numbers become null: strict JSON has no Infinity
        return {
            "levels": self.base.levels,
            "fibers": self.base.fibers,
            "dim": self.dim,
            "eig_cond": self.eig_cond if math.isfinite(self.eig_cond) else None,
            "method": self.method,
            "roundtrip_error": self.roundtrip_error,
        }

    def generator_csv_rows(self) -> list:
        """(row, col, re, im) of the dense generator in the level-major layout.

        Slot (i, l) is row (l-1)*I + (i-1), so fiber block i fills every I-th
        row and column starting at i-1; entries between fibers are zero.
        """
        I = self.base.fibers
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        for i, block in enumerate(self.generator):
            dense[i::I, i::I] = block
        return [(r, c, z.real, z.imag) for (r, c), z in np.ndenumerate(dense)]


def principal_log(op: TruncatedOperator, force_eigen: bool = False) -> MatrixSemigroup:
    """Principal matrix logarithm computed fiber block by fiber block.

    Every diagonal entry must have real part above 1/2, which keeps the
    spectrum inside the domain where the principal branch is analytic.  Each
    fiber block gets an explicit eigendecomposition from the bidiagonal chain
    solve; blocks whose eigenvector matrix is worse conditioned than 1e8 fall
    back to the dense inverse-scaling-and-squaring logarithm.  With
    force_eigen=True the fallback is disabled and ill-conditioned or
    defective blocks raise DegenerateSpectrum instead.
    """
    from scipy.linalg import expm

    diag = np.diagonal(op.blocks, axis1=1, axis2=2).ravel()
    if np.any(diag.real <= 0.5):
        worst = diag[np.argmin(diag.real)]
        raise SpectrumOutsideDomain(
            f"diagonal entry {worst} has real part <= 1/2; principal branch unsafe"
        )
    logs = [_fiber_log(block, allow_fallback=not force_eigen) for block in op.blocks]
    G = np.array([g for g, _, _ in logs])
    G.flags.writeable = False
    worst_cond = max([1.0] + [cond for _, cond, _ in logs])
    methods = {method for _, _, method in logs}
    label = methods.pop() if len(methods) == 1 else "mixed"
    roundtrip = operator_norm(expm(G) - op.blocks, 2) / max(operator_norm(op.blocks, 2), 1.0)
    return MatrixSemigroup(
        base=op, generator=G, eig_cond=worst_cond, method=label, roundtrip_error=roundtrip
    )


def evolve(sg: MatrixSemigroup, t: float) -> np.ndarray:
    """exp(tG) by scaling and squaring."""
    from scipy.linalg import expm

    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise OutOfDomain(f"time parameter must be finite and >= 0, got {t}")
    out = expm(t * sg.generator)
    if not np.all(np.isfinite(out)):
        raise OutOfDomain(f"matrix exponential overflowed at t={t}")
    return out


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
        return {
            "tol": self.tol,
            "all_ok": self.all_ok,
            "rows": [
                {"k": r.k, "n_k": r.n_k, "rel_err": r.rel_err, "ok": r.ok}
                for r in self.rows
            ],
        }


def check_lattice(sg: MatrixSemigroup, seq: IndexSequence, P: int, tol: float = 1e-8) -> LatticeReport:
    """Agreement of the continuous family with integer powers along seq."""
    if seq.kind != "integer":
        raise PreconditionViolated("lattice check needs an integer sequence")
    if not 1 <= P <= len(seq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(seq)}")
    rows = []
    for k in range(1, P + 1):
        n_k = seq.terms[k - 1]
        Tn = matrix_power(sg.base.blocks, n_k)
        scale = operator_norm(Tn, 2)
        err = operator_norm(evolve(sg, n_k) - Tn, 2) / max(scale, 1e-300)
        rows.append(LatticeRow(k, n_k, err, err <= tol))
    return LatticeReport(tol, tuple(rows))


def unit_interval_sup(sg: MatrixSemigroup, points: int = UNIT_GRID_POINTS):
    """Grid maximum of ||exp(sG)|| over [0,1] plus a Lipschitz certificate.

    The derivative bound ||G|| e^{||G||} turns the grid max into a bound on
    the true supremum within half a grid step times that constant.
    """
    norm_G = operator_norm(sg.generator, 2)
    grid = np.linspace(0.0, 1.0, points)
    vals = [operator_norm(evolve(sg, s), 2) for s in grid]
    grid_max = max(vals)
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
        return {
            "grid_sup": self.grid_sup,
            "certified_sup": self.certified_sup,
            "sup_along": self.sup_along,
            "all_ok": self.all_ok,
            "rows": [
                {
                    "k": r.k,
                    "t_k": r.t_k,
                    "floor_n": r.floor_n,
                    "norm_at_t": r.norm_at_t,
                    "norm_at_floor": r.norm_at_floor,
                    "bound": r.bound,
                    "ok": r.ok,
                }
                for r in self.rows
            ],
        }


def bounded_along(sg: MatrixSemigroup, realseq: IndexSequence, P: int, tol: float = 1e-6) -> BoundedReport:
    """Norms along a real sequence against the floor-power factorization.

    Writing t = n + s with n the integer part and s in [0,1), the family
    factorizes as exp(sG) exp(nG), so the norm at t is controlled by the
    unit-interval supremum times the norm at n.
    """
    if not 1 <= P <= len(realseq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(realseq)}")
    grid_sup, certified_sup = unit_interval_sup(sg)
    rows = []
    sup_along = 0.0
    for k in range(1, P + 1):
        t_k = float(realseq.terms[k - 1])
        n_k = int(math.floor(t_k))
        norm_t = operator_norm(evolve(sg, t_k), 2)
        norm_floor = operator_norm(evolve(sg, n_k), 2)
        bound = grid_sup * norm_floor * (1.0 + tol)
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
        return {
            "max_real_part": self.max_real_part,
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "all_ok": self.all_ok,
            "rows": [
                {
                    "expected_imag": r.expected_imag,
                    "real_part": r.real_part,
                    "imag_part": r.imag_part,
                    "deviation": r.deviation,
                }
                for r in self.rows
            ],
        }


def generator_spectrum_check(sg: MatrixSemigroup, tol: float = 1e-9) -> SpectrumReport:
    """Generator eigenvalues against i times the diagonal phase angles.

    Each diagonal entry of T contributes its principal argument once per
    fiber; the generator spectrum must match that multiset and carry no real
    part beyond roundoff.
    """
    expected = sorted(cmath.phase(z) for z in np.diagonal(sg.base.blocks, axis1=1, axis2=2).ravel())
    eigs = sorted(np.linalg.eigvals(sg.generator).ravel(), key=lambda z: z.imag)
    rows = []
    max_real = 0.0
    max_dev = 0.0
    for want, got in zip(expected, eigs):
        dev = float(abs(got - 1j * want))
        max_real = max(max_real, float(abs(got.real)))
        max_dev = max(max_dev, dev)
        rows.append(SpectrumRow(want, float(got.real), float(got.imag), dev))
    return SpectrumReport(max_real, max_dev, tol, tuple(rows))


def lift_report(sg: MatrixSemigroup, seq: IndexSequence, P: int) -> dict:
    """Bundle the standard checks into one JSON-ready summary."""
    lattice = check_lattice(sg, seq, P)
    spectrum = generator_spectrum_check(sg)
    shift_norm = operator_norm(sg.base.shift_part(), 2)
    return {
        "semigroup": sg.to_json_dict(),
        "lattice": lattice.to_json_dict(),
        "spectrum": spectrum.to_json_dict(),
        "shift_norm_2": shift_norm,
        "shift_norm_below_third": shift_norm < 1.0 / 3.0,
    }
