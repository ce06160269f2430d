"""One exact-phase kernel: functions of the unit-band block on exact angles.

A fiber block T is a diagonal of nodes x_l = e^(2 pi i theta_l) plus a band
b, so entry (k, l) of f(T) is the band product b_k ... b_{l-1} times the
divided difference f[x_k, ..., x_l] (Opitz, ZAMM 44, 1964).  The divided
differences are the entries of f(J), with J the unit-band block on the same
nodes, and this module forms only those: ``apply`` reads nothing but the
exact angles.  T^t, Log T and exp(t Log T) all take this route; the node set
and the band products belong to the operator (construction.TruncatedOperator).

``apply`` takes every time of a caller at once, as a sequence of functions,
and returns their stack.  It groups them by cluster labelling, which depends
on each time's scale; within a group each cluster's shifted block (or
ExpLog's log block) and its powers are formed once, and every Taylor sum
stops on its own test.  So a matrix of a batch carries the bits the batch of
one gives it.

Nodes whose exact angle gaps are small on the scale of the function form a
cluster.  The divided differences over runs of one cluster's nodes are the
entries of f on the cluster's unit-band block, one Taylor series around an
exact centre sigma in the shifted block A = sigma^-1 J - I (McCurdy, Ng and
Parlett, Math. Comp. 43, 1984).  A node set S that meets several clusters
takes f[S] = (f[S - {a}] - f[S - {b}]) / (x_b - x_a), with a and b in
different clusters and the gap x_b - x_a from the exact angles; each set is
memoised by the run of nodes each cluster still has.  The diagonal holds the
exact node values.  Every phase (z^t, Log z) is taken from the exact angle,
with t * theta reduced mod 1 as an integer residue before the float
exponential (sequences.unit_point), so no error of order n * eps builds up
at factorial powers.

Accuracy, to first order in u = 2^-53.  A Taylor sum errs by a few u relative
to the moduli it combines (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, section 3.6), so a cluster's divided differences
err by at most 12 L u times the largest of their moduli.  A cross-cluster
step divides by a gap of at least CLUSTER_GAP / scale, so it can magnify the
errors it inherits, and its own rounding, by 2 scale / CLUSTER_GAP.  Entry
(k, l) takes s such steps, s = 0 within one cluster and s <= l - k across
clusters, and reads no node outside k..l.  So entry (k, l) of f(J) errs by
at most 12 L u M_kl (1 + 2 scale / CLUSTER_GAP)^s, with M_kl the largest
modulus of a cluster divided difference over nodes among k..l: each entry is
accurate against its own size, not against ||f(J)||, and multiplying by a
band product keeps that relative accuracy.
"""

import cmath
import functools
import numbers
from fractions import Fraction
from itertools import accumulate, chain, count

import numpy as np

from .errors import OutOfDomain
from .sequences import signed_turns, turns_to_radians, unit_diff, unit_point, unit_step

CLUSTER_GAP = 0.1  # radians times max(|t|, 1): closer nodes share a Taylor cluster
_MAX_TERMS = 400
_EPS = 2.0 ** -53


def _imag_turns(theta: Fraction) -> complex:
    """2 pi i theta."""
    return complex(0.0, turns_to_radians(theta))


class Powers:
    """A^0, A^1, ... of one block, each formed once however many sums read it."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.m = A.shape[0]
        self.formed = [np.eye(self.m, dtype=complex)]

    def __getitem__(self, j: int) -> np.ndarray:
        while len(self.formed) <= j:
            self.formed.append(self.formed[-1] @ self.A)
        return self.formed[j]


class Power:
    """f(z) = z^t on a block of T, whose node l is e^(2 pi i theta_l).

    Node angles are the signed representatives, so z^t is the principal
    power exp(t Log z).  A cluster centred at sigma is summed in its shifted
    unit-band block A: f(sigma (1 + x)) = sigma^t sum_j C(t, j) x^j.
    """

    def __init__(self, t: Fraction):
        self.t = t
        self.scale = max(abs(t), 1)

    def value(self, theta: Fraction) -> complex:
        return unit_point(theta, self.t)

    def block(self, shifted: Powers, sigma: Fraction, angles: tuple, levels: tuple) -> Powers:
        """The powers of the block a cluster's Taylor sum runs on: here the shifted block A itself."""
        return shifted

    def taylor(self, sigma: Fraction):
        """Coefficients of x -> f(e^(2 pi i sigma) (1 + x)) at x = 0."""
        t = float(self.t)
        return accumulate(count(1), lambda c, j: c * (t - (j - 1)) / j, initial=self.value(sigma))


class Log(Power):
    """The principal Log on a block of T: Log(sigma (1 + x)) = 2 pi i sigma + log(1 + x)."""

    def __init__(self):
        self.scale = 1

    def value(self, theta: Fraction) -> complex:
        return _imag_turns(theta)

    def taylor(self, sigma: Fraction):
        return chain([self.value(sigma)], ((1.0 if j % 2 else -1.0) / j for j in count(1)))


class ExpLog(Power):
    """z^t as exp(t Log z): a cluster is the exp series of t times its log block.

    The log block Y = Log(sigma^-1 J) of a cluster comes from Log's series,
    with the exact diagonal 2 pi i (theta - sigma).  logs, one dict per block,
    memoises Y's powers by the cluster's levels, so every time that forms the
    same cluster reuses them.
    """

    def __init__(self, t: Fraction, logs: dict):
        super().__init__(t)
        self.logs = logs

    def block(self, shifted: Powers, sigma: Fraction, angles: tuple, levels: tuple) -> Powers:
        powers = self.logs.get(levels)
        if powers is None:
            (Y,) = _taylor(shifted, [Log().taylor(sigma)])
            Y[np.diag_indices(len(levels))] = [_imag_turns(theta - sigma) for theta in angles]
            powers = self.logs[levels] = Powers(Y)
        return powers

    def taylor(self, sigma: Fraction):
        """exp(t (2 pi i sigma + y)) = e^(2 pi i t sigma) sum_j t^j y^j / j!, the phase from the exact sigma."""
        s = float(self.t)
        return accumulate(count(1), lambda c, j: c * s / j, initial=self.value(sigma))


def exp_shifted(Y: np.ndarray, sigma: Fraction, t: Fraction) -> np.ndarray:
    """exp(t (2 pi i sigma I + Y)): ExpLog's series on a given log block Y."""
    (E,) = _taylor(Powers(Y), [ExpLog(t, {}).taylor(sigma)])
    return E


class NodeSet:
    """Signed exact angles of a fiber block's diagonal, with their sorted gaps."""

    def __init__(self, row: tuple):
        self.thetas = tuple(signed_turns(theta) for theta in row)
        self.order = sorted(range(len(row)), key=self.thetas.__getitem__)
        # exact gap to the previous node in that order, as a float
        self.gaps = [float(self.thetas[cur] - self.thetas[prev]) for prev, cur in zip(self.order, self.order[1:])]


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


def _taylor(powers: Powers, series: list) -> np.ndarray:
    """sum_j c_j A^j for each coefficient series c, stacked; each stops on its own test.

    A sum stops once two of its terms past the nilpotent part are
    negligible, so it takes the terms, and keeps the bits, it would take
    alone.  A nilpotent A (a singleton cluster, or equal nodes) ends every
    sum at A^m = 0 exactly, before a coefficient too large for a double
    meets that zero.  Each term is a Python scalar times the shared power,
    one product per sum: a broadcast product may round differently.
    """
    m = powers.m
    S = np.zeros((len(series), m, m), dtype=complex)
    term = np.empty_like(S)
    live = dict(enumerate(map(iter, series)))  # each unfinished sum's coefficients still to come
    quiet = [0] * len(series)
    for j in count():
        power = powers[j]
        if j == m and not power.any():
            return S
        for i, coeffs in live.items():
            c = next(coeffs)
            if not cmath.isfinite(c):
                raise OutOfDomain(f"Taylor coefficient {j} overflows the double range")
            np.multiply(c, power, out=term[i])
        at = list(live)
        S[at] += term[at]
        tiny = np.abs(term[at]).max(axis=(1, 2)) <= _EPS * np.abs(S[at]).max(axis=(1, 2))
        for i, small in zip(at, tiny):
            quiet[i] = quiet[i] + 1 if j >= m and small else 0
            if quiet[i] == 2:
                del live[i]
        if not live:
            return S
        if j == _MAX_TERMS:
            raise OutOfDomain(f"cluster Taylor series not converged after {_MAX_TERMS} terms")


def apply(nodes: NodeSet, fs) -> np.ndarray:
    """f(J) for each f of fs, stacked, on the unit-band block J whose node l has signed angle nodes.thetas[l].

    Entry (k, l), k <= l, is f[x_k, ..., x_l]: within one cluster an entry of
    the cluster's Taylor sum, across clusters the divided-difference
    recurrence on the exact node gaps (module docstring).  The functions are
    taken in groups that share a cluster labelling; within a group each
    cluster's block and its powers are formed once.
    """
    L = len(nodes.thetas)
    out = np.empty((len(fs), L, L), dtype=complex)
    groups = {}
    for i, f in enumerate(fs):
        groups.setdefault(tuple(clusters(nodes, f.scale)), []).append(i)
    for label, items in groups.items():
        out[items] = _apply_group(nodes.thetas, label, [fs[i] for i in items])
    return out


def _apply_group(thetas: tuple, label: tuple, fs: list) -> np.ndarray:
    """apply for functions that all sort the nodes into the clusters label."""
    L = len(thetas)
    values = np.array([[f.value(theta) for theta in thetas] for f in fs], dtype=complex)
    members = [tuple(l for l in range(L) if label[l] == c) for c in range(max(label) + 1)]
    runs = []  # each cluster's divided differences over runs of its own nodes, one per function
    for own in members:
        angles = tuple(thetas[l] for l in own)
        sigma = (min(angles) + max(angles)) / 2
        A = np.eye(len(own), k=1) * unit_point(-sigma)
        A[np.diag_indices(len(own))] = [unit_step(float(theta - sigma)) for theta in angles]
        shifted = Powers(A)
        blocks = [f.block(shifted, sigma, angles, own) for f in fs]
        D = np.empty((len(fs), len(own), len(own)), dtype=complex)
        for powers in {id(b): b for b in blocks}.values():
            at = [i for i, b in enumerate(blocks) if b is powers]
            D[at] = _taylor(powers, [fs[i].taylor(sigma) for i in at])
        diagonal = range(len(own))
        D[:, diagonal, diagonal] = values[:, own]
        runs.append(D)
    if len(runs) == 1:
        return runs[0]
    pos = [members[c].index(l) for l, c in enumerate(label)]

    @functools.cache
    def divided(S: tuple) -> np.ndarray:
        """f over the levels S, in order, for every f: a run of each cluster's nodes."""
        a = S[0]
        b = next((l for l in S if label[l] != label[a]), None)
        if b is None:
            return runs[label[a]][:, pos[a], pos[S[-1]]]
        rest = tuple(l for l in S if l != b)
        return (divided(S[1:]) - divided(rest)) / unit_diff(thetas[b], thetas[a])

    F = np.zeros((len(fs), L, L), dtype=complex)
    F[:, range(L), range(L)] = values
    for k in range(L):
        for l in range(k + 1, L):
            F[:, k, l] = divided(tuple(range(k, l + 1)))
    return F


def exact_time(t) -> Fraction:
    return Fraction(t) if isinstance(t, numbers.Rational) else Fraction(float(t))
