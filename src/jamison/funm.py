"""One exact-phase kernel for functions of an upper-triangular fiber block.

T^t, Log T and exp(tG) all come from one Schur-Parlett evaluation (Davies &
Higham, SIAM J. Matrix Anal. Appl. 25, 2003; Higham, Functions of Matrices,
2008, ch. 4 and 9).  Nodes whose exact angle gaps are small on the scale of
the function form a cluster, summed as a Taylor series around an exact
centre sigma in the shifted block sigma^-1 T - I; the Parlett recurrence
joins distinct clusters.  Every phase (z^n, z^t, Log z) is taken from the
exact angle, with t * theta reduced mod 1 before the float exponential, so no
error of order n * eps builds up at factorial powers.  The block is balanced
by its band products first, so every entry keeps its own relative accuracy.

An operator is anything with an (L, L) ``block``, fiber 1's, and a
``thetas`` tuple holding its exact diagonal angles (turns).

Accuracy, to first order in u = 2^-53.  A Taylor sum, a Parlett entry and a
plane rotation each err by a few u relative to the moduli they combine
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
sections 3.6 and 19.3).  A Parlett entry divides by the gap between nodes of
two clusters, at least CLUSTER_GAP / scale, so each of the m - 1 cluster
boundaries an entry spans can magnify the errors it inherits by scale /
CLUSTER_GAP.  Where clusters interleave, the r swaps that make them
contiguous, and the return by Q, apply 2r plane rotations to the block and
to its result.  So every entry of f(T), in the balanced basis, errs by at
most 12 (L + r) u ||f(T)||_F (1 + scale / CLUSTER_GAP)^(m - 1); r = 0 where no
clusters interleave.
"""

import cmath
import numbers
from fractions import Fraction

import numpy as np

from .errors import OutOfDomain, PreconditionViolated
from .sequences import TorusPoint, turns_to_radians, unit_diff, unit_step

CLUSTER_GAP = 0.1  # radians times max(|t|, 1): closer nodes share a Taylor cluster
_MAX_TERMS = 400
_EPS = 2.0 ** -53
_HALF = Fraction(1, 2)


def _signed(theta: Fraction) -> Fraction:
    """The representative of an angle (turns) in [-1/2, 1/2)."""
    return (theta + _HALF) % 1 - _HALF


def _phase(theta: Fraction) -> complex:
    """e^(2 pi i theta), with theta reduced mod 1 exactly first."""
    return TorusPoint(theta).complex_value()


def _imag_turns(theta: Fraction) -> complex:
    """2 pi i theta."""
    return complex(0.0, turns_to_radians(theta))


class Power:
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
        """Diagonal entry e^(2 pi i (theta - sigma)) - 1, to full relative accuracy.

        theta and sigma are signed angles of one cluster, so their difference
        needs no reduction.
        """
        return unit_step(float(theta - sigma))

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


class Log(Power):
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


class Exp(Power):
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


class NodeSet:
    """Signed exact angles of a fiber block's diagonal, with their sorted gaps."""

    def __init__(self, row: tuple):
        self.thetas = tuple(_signed(theta) for theta in row)
        self.order = sorted(range(len(row)), key=self.thetas.__getitem__)
        # exact gap to the previous node in that order, as a float
        self.gaps = [float(self.thetas[cur] - self.thetas[prev]) for prev, cur in zip(self.order, self.order[1:])]
        self.log_diag = np.array([_imag_turns(theta) for theta in self.thetas])  # the diagonal of Log T


def clusters(nodes: NodeSet, scale) -> list:
    """Cluster label of every node, numbered in order of first appearance.

    Single linkage on the exact angle gaps: sorted neighbours at most
    CLUSTER_GAP / (2 pi scale) turns apart share a cluster, so nodes in
    distinct clusters are never closer than that.
    """
    reach = CLUSTER_GAP / turns_to_radians(scale)
    raw = [0] * len(nodes.thetas)
    for prev, cur, gap in zip(nodes.order, nodes.order[1:], nodes.gaps):
        raw[cur] = raw[prev] + (gap > reach)
    first = {}
    return [first.setdefault(r, len(first)) for r in raw]


def band_products(block: np.ndarray) -> np.ndarray:
    """Entry (k, l), k < l, is |b_k ... b_{l-1}| over the block's superdiagonal b.

    A zero b_q counts as 1, and entries on and below the diagonal read 1.
    Dividing the block by it entrywise is the diagonal similarity that gives
    every nonzero superdiagonal entry modulus 1.
    """
    band = np.abs(np.diagonal(block, offset=1))
    band[band == 0] = 1.0
    out = np.ones(block.shape)
    for k in range(block.shape[0] - 1):
        out[k, k + 1:] = np.cumprod(band[k:])
    return out


def balancing(block: np.ndarray) -> np.ndarray:
    """The band products the kernel balances a block by: band_products, or all
    ones when a product leaves the double range (the block is then left unbalanced)."""
    P = band_products(block)
    return P if np.all((P > 0) & np.isfinite(P)) else np.ones_like(P)


def _swap(B: np.ndarray, Q: np.ndarray, k: int, gap: complex) -> None:
    """Exchange the nodes at positions k and k+1 by a unitary rotation.

    gap is the node at k+1 minus the node at k.  The rotation's first column
    is the eigenvector (b, gap) of the 2 x 2 diagonal block for its lower
    node, so B stays upper triangular; Q accumulates the rotations.
    """
    v = np.array([B[k, k + 1], gap])
    v /= np.linalg.norm(v, axis=-1)  # sums |v_q|^2 pairwise; the default sums real parts, then imaginary
    R = np.array([[v[0], -v[1].conjugate()], [v[1], v[0].conjugate()]])
    B[:, k:k + 2] = B[:, k:k + 2] @ R
    B[k:k + 2, :] = R.conj().T @ B[k:k + 2, :]
    B[k + 1, k] = 0.0
    Q[:, k:k + 2] = Q[:, k:k + 2] @ R


def _taylor(A: np.ndarray, coeffs) -> np.ndarray:
    """sum_j coeffs[j] A^j, until two terms past the nilpotent part are negligible.

    A nilpotent A (a singleton cluster, or equal nodes) ends the sum at A^m = 0
    exactly, before a coefficient too large for a double meets that zero.
    """
    m = A.shape[0]
    S = np.zeros_like(A)
    power = np.eye(m, dtype=complex)
    quiet = 0
    for j, c in enumerate(coeffs):
        if j:
            power = power @ A
            if j == m and not power.any():
                return S
        if not cmath.isfinite(c):
            raise OutOfDomain(f"Taylor coefficient {j} overflows the double range")
        term = c * power
        S += term
        tiny = np.abs(term).max() <= _EPS * np.abs(S).max()
        quiet = quiet + 1 if j >= m and tiny else 0
        if quiet == 2:
            return S
        if j == _MAX_TERMS:
            raise OutOfDomain(f"cluster Taylor series not converged after {_MAX_TERMS} terms")


def apply(block: np.ndarray, nodes: NodeSet, f: Power) -> np.ndarray:
    """f of an upper-triangular (L, L) block whose node l has signed angle nodes.thetas[l].

    Rotations first make every cluster contiguous (none are needed when the
    clusters do not interleave); each diagonal cluster block is a Taylor sum,
    and each entry linking two clusters follows from FT = TF (Parlett):
    F_kl (T_ll - T_kk) = T_kl (F_ll - F_kk) + sum_{k<m<l} (T_km F_ml - F_km T_ml),
    with both differences taken from the exact angles.  The diagonal is set
    to the exact node values.

    The block is balanced first by the similarity that divides entry (k, l)
    by its band product (band_products).  Entry (k, l) of f(T) is that
    product times a divided difference of f; unbalanced, the Taylor sums stop
    once the entries near the diagonal converge, while entries whose products
    are 1e-80 smaller still need terms.  A product outside the double range
    leaves the block unbalanced.
    """
    if np.any(np.tril(block, -1)):
        raise PreconditionViolated("the fiber block must be upper triangular")
    L = block.shape[0]
    thetas = nodes.thetas
    label = clusters(nodes, f.scale)
    P = balancing(block)
    B = np.asarray(block, dtype=complex) / P
    Q = None
    pos = list(range(L))  # node at each position
    for end in range(L - 1, 0, -1):
        for k in range(end):
            a, c = pos[k], pos[k + 1]
            if label[a] > label[c]:
                if Q is None:
                    Q = np.eye(L, dtype=complex)
                _swap(B, Q, k, f.node_gap(thetas[c], thetas[a]))
                pos[k], pos[k + 1] = c, a
    F = np.zeros_like(B)
    start = 0
    for stop in range(1, L + 1):
        if stop < L and label[pos[stop]] == label[pos[start]]:
            continue
        members = [thetas[p] for p in pos[start:stop]]
        sigma = (min(members) + max(members)) / 2
        A = np.triu(B[start:stop, start:stop], 1) * f.weight(sigma)
        A[np.diag_indices(stop - start)] = [f.shifted(theta, sigma) for theta in members]
        F[start:stop, start:stop] = _taylor(A, f.taylor(sigma))
        start = stop
    for l in range(L):
        for k in range(l - 1, -1, -1):
            a, c = pos[k], pos[l]
            if label[a] == label[c]:
                continue
            inner = (B[k, k + 1:l] * F[k + 1:l, l]).sum() - (F[k, k + 1:l] * B[k + 1:l, l]).sum()
            F[k, l] = (B[k, l] * f.value_gap(thetas[c], thetas[a]) + inner) / f.node_gap(thetas[c], thetas[a])
    if Q is not None:
        F = np.triu(Q @ F @ Q.conj().T, 1)
    F[np.diag_indices(L)] = [f.value(theta) for theta in thetas]
    return F * P


def exact_time(t) -> Fraction:
    return Fraction(t) if isinstance(t, numbers.Rational) else Fraction(float(t))


def operator_power(op, t) -> np.ndarray:
    """T^t = exp(t Log T) on op's fiber block, t*theta reduced mod 1 exactly."""
    return apply(op.block, NodeSet(op.thetas), Power(exact_time(t)))
