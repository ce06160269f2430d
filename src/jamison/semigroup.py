"""Continuous-parameter lift of a truncated shift-plus-rotation operator.

A certified operator T from the construction module is a stack of
upper-bidiagonal fiber blocks whose unimodular diagonal entries carry exact
rational angles on a short arc in the right half plane, well clear of the
branch cut of the principal logarithm.  This module computes G = Log T,
exposes the one-parameter family t -> exp(tG), and provides checks that the
family agrees with integer powers of T on the index sequence, stays bounded
along real sequences, and has purely imaginary generator spectrum.

T^n, Log T and exp(tG) all come from one exact-phase Schur-Parlett kernel
(Davies & Higham, SIAM J. Matrix Anal. Appl. 25, 2003; Higham, Functions of
Matrices, 2008, ch. 4 and 9).  Nodes whose exact angle gaps are small on the
scale of the function form a cluster, summed as a Taylor series around an
exact centre sigma in the shifted block sigma^-1 T - I; the Parlett
recurrence joins distinct clusters.  Every phase (z^n, z^t, Log z) is taken
from the exact angle, with t * theta reduced mod 1 before the float
exponential, so no error of order n * eps builds up at factorial powers.  The
module needs numpy alone.
"""

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# matrix_power stays bound here as well: the benchmark tracer patches every
# binding of it and checks this one.
from .construction import TruncatedOperator, matrix_power, operator_norm  # noqa: F401
from .errors import (
    HorizonExceedsSequence,
    OutOfDomain,
    PreconditionViolated,
    SpectrumOutsideDomain,
)
from .sequences import TWO_PI, IndexSequence, TorusPoint, unit_diff

LOG_METHOD = "exact-phase-schur-parlett"
CLUSTER_GAP = 0.1  # radians times max(|t|, 1): closer nodes share a Taylor cluster
UNIT_GRID_POINTS = 64
_MAX_TERMS = 400
_EPS = 2.0 ** -53
_HALF = Fraction(1, 2)
_ORIGIN = TorusPoint(Fraction(0))


# --- exact-phase function kernel -------------------------------------------------


def _signed(theta: Fraction) -> Fraction:
    """The representative of an angle (turns) in [-1/2, 1/2)."""
    return (theta + _HALF) % 1 - _HALF


def _phase(theta: Fraction) -> complex:
    """e^(2 pi i theta), with theta reduced mod 1 exactly first."""
    return TorusPoint(theta).complex_value()


def _imag_turns(theta: Fraction) -> complex:
    """2 pi i theta."""
    return complex(0.0, TWO_PI * float(theta))


class _Power:
    """f(z) = z^t on a block of T, whose node l is e^(2 pi i theta_l).

    Node angles are the signed representatives, so z^t is the principal
    power exp(t Log z).  A cluster centred at sigma is summed in the shifted
    block M = sigma^-1 T - I: f(sigma (1 + x)) = sigma^t sum_j C(t, j) x^j.
    """

    def __init__(self, t: Fraction):
        self.t = t
        self.scale = max(abs(t), 1)

    def weight(self, sigma: Fraction) -> complex:
        """Factor of the off-diagonal entries in the shifted block."""
        return _phase(-sigma)

    def shifted(self, theta: Fraction, sigma: Fraction) -> complex:
        """Diagonal entry e^(2 pi i (theta - sigma)) - 1, to full relative accuracy."""
        return unit_diff(TorusPoint(theta - sigma), _ORIGIN)

    def node_gap(self, a: Fraction, b: Fraction) -> complex:
        return unit_diff(TorusPoint(a), TorusPoint(b))

    def value(self, theta: Fraction) -> complex:
        return _phase(self.t * theta)

    def value_gap(self, a: Fraction, b: Fraction) -> complex:
        return unit_diff(TorusPoint(self.t * a), TorusPoint(self.t * b))

    def taylor(self, sigma: Fraction):
        """Coefficients of x -> f(e^(2 pi i sigma) (1 + x)) at x = 0."""
        c, t, j = self.value(sigma), float(self.t), 0
        while True:
            yield c
            j += 1
            c = c * (t - (j - 1)) / j


class _Log(_Power):
    """The principal Log on a block of T: Log(sigma (1 + x)) = 2 pi i sigma + log(1 + x)."""

    def __init__(self):
        self.scale = 1

    def value(self, theta: Fraction) -> complex:
        return _imag_turns(theta)

    def value_gap(self, a: Fraction, b: Fraction) -> complex:
        return _imag_turns(a - b)

    def taylor(self, sigma: Fraction):
        yield self.value(sigma)
        j = 1
        while True:
            yield (1.0 if j % 2 else -1.0) / j
            j += 1


class _Exp(_Power):
    """f(y) = e^(t y) on a block of G = Log T, whose node l is 2 pi i theta_l.

    A cluster centred at sigma is summed in Y = G - 2 pi i sigma I:
    f = sigma^t sum_j (t Y)^j / j!, the phase sigma^t taken exactly.
    """

    def weight(self, sigma: Fraction) -> complex:
        return 1.0

    def shifted(self, theta: Fraction, sigma: Fraction) -> complex:
        return _imag_turns(theta - sigma)

    def node_gap(self, a: Fraction, b: Fraction) -> complex:
        return _imag_turns(a - b)

    def taylor(self, sigma: Fraction):
        c, t, j = self.value(sigma), float(self.t), 0
        while True:
            yield c
            j += 1
            c = c * t / j


class _NodeSet:
    """Signed exact angles shared by some fiber blocks, with their sorted gaps."""

    def __init__(self, row: tuple, fibers: list):
        self.thetas = tuple(_signed(theta) for theta in row)
        self.fibers = fibers  # indices of the blocks that carry these angles
        self.order = sorted(range(len(row)), key=self.thetas.__getitem__)
        # exact gap to the previous node in that order, as a float
        self.gaps = [float(self.thetas[cur] - self.thetas[prev]) for prev, cur in zip(self.order, self.order[1:])]
        self.log_diag = np.array([_imag_turns(theta) for theta in self.thetas])  # the diagonal of Log T


def _node_sets(angle_rows: tuple) -> list:
    """Group fiber blocks by their exact angles (one group for a constructed operator)."""
    groups = {}
    for i, row in enumerate(angle_rows):
        groups.setdefault(row, []).append(i)
    return [_NodeSet(row, fibers) for row, fibers in groups.items()]


def _clusters(nodes: _NodeSet, scale) -> list:
    """Cluster label of every node, numbered in order of first appearance.

    Single linkage on the exact angle gaps: sorted neighbours at most
    CLUSTER_GAP / (2 pi scale) turns apart share a cluster, so nodes in
    distinct clusters are never closer than that.
    """
    reach = CLUSTER_GAP / (TWO_PI * float(scale))
    raw = [0] * len(nodes.thetas)
    for prev, cur, gap in zip(nodes.order, nodes.order[1:], nodes.gaps):
        raw[cur] = raw[prev] + (gap > reach)
    first = {}
    return [first.setdefault(r, len(first)) for r in raw]


def _swap(B: np.ndarray, Q: np.ndarray, k: int, gap: complex) -> None:
    """Exchange the nodes at positions k and k+1 by a unitary rotation.

    gap is the node at k+1 minus the node at k.  The rotation's first column
    is the eigenvector (b, gap) of the 2 x 2 diagonal block for its lower
    node, so B stays upper triangular; Q accumulates the rotations.
    """
    v = np.stack([B[:, k, k + 1], np.full(B.shape[0], gap)], axis=-1)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    R = np.stack([v, np.stack([-v[:, 1].conj(), v[:, 0].conj()], axis=-1)], axis=-1)
    B[:, :, k:k + 2] = B[:, :, k:k + 2] @ R
    B[:, k:k + 2, :] = R.conj().swapaxes(-1, -2) @ B[:, k:k + 2, :]
    B[:, k + 1, k] = 0.0
    Q[:, :, k:k + 2] = Q[:, :, k:k + 2] @ R


def _taylor(A: np.ndarray, coeffs) -> np.ndarray:
    """sum_j coeffs[j] A^j over a stack, until two terms past the nilpotent part are negligible."""
    m = A.shape[-1]
    S = np.zeros_like(A)
    power = np.broadcast_to(np.eye(m, dtype=complex), A.shape)
    quiet = 0
    for j, c in enumerate(coeffs):
        if j:
            power = power @ A
        term = c * power
        S += term
        tiny = np.abs(term).max(axis=(-2, -1)) <= _EPS * np.abs(S).max(axis=(-2, -1))
        quiet = quiet + 1 if j >= m and tiny.all() else 0
        if quiet == 2:
            return S
        if j == _MAX_TERMS:
            raise OutOfDomain(f"cluster Taylor series not converged after {_MAX_TERMS} terms")


def _schur_parlett(blocks: np.ndarray, nodes: _NodeSet, f: _Power) -> np.ndarray:
    """f of a stack of upper-triangular blocks whose node l has signed angle nodes.thetas[l].

    Rotations first make every cluster contiguous (none are needed when the
    clusters do not interleave); each diagonal cluster block is a Taylor sum,
    and each entry linking two clusters follows from FT = TF (Parlett):
    F_kl (T_ll - T_kk) = T_kl (F_ll - F_kk) + sum_{k<m<l} (T_km F_ml - F_km T_ml),
    with both differences taken from the exact angles.  The diagonal is set
    to the exact node values.
    """
    L = blocks.shape[-1]
    thetas = nodes.thetas
    label = _clusters(nodes, f.scale)
    B = np.array(blocks, dtype=complex)
    Q = None
    pos = list(range(L))  # node at each position
    for end in range(L - 1, 0, -1):
        for k in range(end):
            a, c = pos[k], pos[k + 1]
            if label[a] > label[c]:
                if Q is None:
                    Q = np.broadcast_to(np.eye(L, dtype=complex), B.shape).copy()
                _swap(B, Q, k, f.node_gap(thetas[c], thetas[a]))
                pos[k], pos[k + 1] = c, a
    F = np.zeros_like(B)
    start = 0
    for stop in range(1, L + 1):
        if stop < L and label[pos[stop]] == label[pos[start]]:
            continue
        members = [thetas[p] for p in pos[start:stop]]
        sigma = (min(members) + max(members)) / 2
        A = np.triu(B[:, start:stop, start:stop], 1) * f.weight(sigma)
        idx = np.arange(stop - start)
        A[:, idx, idx] = [f.shifted(theta, sigma) for theta in members]
        F[:, start:stop, start:stop] = _taylor(A, f.taylor(sigma))
        start = stop
    for l in range(L):
        for k in range(l - 1, -1, -1):
            a, c = pos[k], pos[l]
            if label[a] == label[c]:
                continue
            inner = (B[:, k, k + 1:l] * F[:, k + 1:l, l]).sum(-1) - (F[:, k, k + 1:l] * B[:, k + 1:l, l]).sum(-1)
            F[:, k, l] = (B[:, k, l] * f.value_gap(thetas[c], thetas[a]) + inner) / f.node_gap(thetas[c], thetas[a])
    if Q is not None:
        F = np.triu(Q @ F @ Q.conj().swapaxes(-1, -2), 1)
    idx = np.arange(L)
    F[:, idx, idx] = [f.value(theta) for theta in thetas]
    return F


def _apply(blocks: np.ndarray, node_sets: list, f: _Power) -> np.ndarray:
    """f of every block of a stack, one kernel call per node set."""
    if np.any(np.tril(blocks, -1)):
        raise PreconditionViolated("fiber blocks must be upper triangular")
    out = np.empty(blocks.shape, dtype=complex)
    for nodes in node_sets:
        out[nodes.fibers] = _schur_parlett(blocks[nodes.fibers], nodes, f)
    return out


def operator_power(op: TruncatedOperator, t) -> np.ndarray:
    """T^t = exp(t Log T) on every fiber block of op, t*theta reduced mod 1 exactly."""
    return _apply(op.blocks, _node_sets(op.exact_angles()), _Power(_exact_time(t)))


def _exact_time(t) -> Fraction:
    return Fraction(t) if isinstance(t, numbers.Rational) else Fraction(float(t))


# --- the lift --------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixSemigroup:
    """One-parameter matrix family exp(tG) with G the principal log of T."""

    base: TruncatedOperator
    generator: np.ndarray  # (fibers, levels, levels) stack, one log per fiber block
    method: str
    log_clusters: int  # most Taylor clusters in one block's log; 1 means no Parlett step
    roundtrip_error: float = field(default=math.nan)

    @functools.cached_property
    def node_sets(self) -> list:
        return _node_sets(self.base.exact_angles())

    @property
    def dim(self) -> int:
        return self.base.levels * self.base.fibers

    def to_json_dict(self) -> dict:
        return {
            "levels": self.base.levels,
            "fibers": self.base.fibers,
            "dim": self.dim,
            "method": self.method,
            "log_clusters": self.log_clusters,
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


def principal_log(op: TruncatedOperator) -> MatrixSemigroup:
    """Principal matrix logarithm computed fiber block by fiber block.

    Every diagonal entry must have real part above 1/2, which keeps the
    spectrum inside the domain where the principal branch is analytic.  Each
    block goes through the exact-phase kernel with f = Log; a defective block
    (a repeated diagonal coupled through the band) is an ordinary cluster.
    The roundtrip error compares exp(G), from the same kernel with f = exp,
    against T.
    """
    diag = np.diagonal(op.blocks, axis1=1, axis2=2).ravel()
    if np.any(diag.real <= 0.5):
        worst = diag[np.argmin(diag.real)]
        raise SpectrumOutsideDomain(
            f"diagonal entry {worst} has real part <= 1/2; principal branch unsafe"
        )
    node_sets = _node_sets(op.exact_angles())
    G = _apply(op.blocks, node_sets, _Log())
    G.flags.writeable = False
    clusters = max(len(set(_clusters(nodes, 1))) for nodes in node_sets)
    back = _apply(G, node_sets, _Exp(Fraction(1)))
    roundtrip = operator_norm(back - op.blocks, 2) / max(operator_norm(op.blocks, 2), 1.0)
    return MatrixSemigroup(
        base=op, generator=G, method=LOG_METHOD, log_clusters=clusters, roundtrip_error=roundtrip
    )


def evolve(sg: MatrixSemigroup, t) -> np.ndarray:
    """exp(tG), with the phase of every node reduced mod 1 exactly.

    G must be upper triangular with the exact log nodes 2 pi i theta on its
    diagonal, as principal_log writes it.
    """
    if not math.isfinite(float(t)) or t < 0:
        raise OutOfDomain(f"time parameter must be finite and >= 0, got {t}")
    diag = np.diagonal(sg.generator, axis1=1, axis2=2)
    if any((diag[nodes.fibers] != nodes.log_diag).any() for nodes in sg.node_sets):
        raise PreconditionViolated("generator diagonal is not the exact log spectrum of its base operator")
    out = _apply(sg.generator, sg.node_sets, _Exp(_exact_time(t)))
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
    """Agreement of the continuous family with integer powers along seq.

    The two sides share the exact phases but not the arithmetic: within a
    cluster T^n is the binomial series sigma^n sum_j C(n, j) M^j in the
    shifted block M = sigma^-1 T - I, while exp(nG) is
    sigma^n sum_j (n Y)^j / j! in Y = G - 2 pi i sigma I, whose band came out
    of the log series; the Parlett step between clusters divides T's band
    and G's band by different node gaps.
    """
    if seq.kind != "integer":
        raise PreconditionViolated("lattice check needs an integer sequence")
    if not 1 <= P <= len(seq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(seq)}")
    rows = []
    for k in range(1, P + 1):
        n_k = seq.terms[k - 1]
        Tn = operator_power(sg.base, n_k)
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
