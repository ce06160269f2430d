"""Weighted half-line norm on exponential spans and the renorming bound.

The base norm is ||f|| = (integral_0^inf |f(t)|^2 / (1+t^2) dt)^(1/2) on
finite spans of exponentials e_eta(t) = exp(i eta t).  On top of it sits a
truncated renormed value that takes the max of the base norm against scaled
suprema of products of (shift-minus-identity) factors along an index
sequence.  Shifts act diagonally on exponentials, so every product reduces
to scalar factors and all searches run over multisets of sequence indices.
One kernel, _multiset_maxima, walks those multisets for both the star norm
and the product-difference table d_j, exhaustively or as a beam.  It carries
a leading batch axis: the spans or frequency pairs of one call (a
translation table, a pair table, a field table) walk together, and a single
span or pair is the batch of one.

Frequencies are radians per unit time throughout this module; torus points
from the sequences module live in turns.  sequences.turns_to_radians is the
one conversion between them, and no frequency is turned back into an angle.
The Gram's sine parts come from a closed form in the exponential integrals,
so this module needs numpy alone.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigInvalid, HorizonExceedsSequence
from .sequences import IndexSequence

ROOT_HALF_PI = math.sqrt(math.pi / 2.0)
EXHAUSTIVE_LIMIT = 20000
BEAM_WIDTH = 32
TRANSLATION_TOL = 1e-6  # relative slack of the asserted factor-5 translation bound
# Items walked together are chunked so that one frontier holds about this
# many rows, 0.25 MB per complex array of two columns.  Eight times as many
# rows ran no faster and raised a starnorm command's peak RSS by 7 MB.
_FRONTIER_ROWS = 1 << 13
EI_ASYMPTOTIC_FROM = 40.0
_EPS = sys.float_info.epsilon
# For finite x every series and continued fraction below converges within
# about 100 steps; the cap only ends the loop for a NaN or infinite x.
_MAX_TERMS = 200


def _exp_series(x: float) -> tuple:
    """Odd-k and even-k parts of sum_{k>=1} x^k / (k k!), for 0 < x <= 40."""
    sums = [0.0, 0.0]
    term = 1.0
    for k in range(1, _MAX_TERMS):
        term *= x / k
        part = term / k
        sums[k & 1] += part
        if part <= _EPS * sums[1]:
            break
    return sums[1], sums[0]


def _scaled_e1(x: float) -> float:
    """e^x E1(x) for x > 1: modified Lentz on the continued fraction (A&S 5.1.22)."""
    b = x + 1.0
    c = 1.0 / sys.float_info.min  # stands in for 1/0: the fraction has no leading term
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return h


def _scaled_ei(x: float) -> float:
    """e^-x Ei(x) for x > 1: power series (A&S 5.1.10) up to 40, asymptotic above."""
    if x <= EI_ASYMPTOTIC_FROM:
        odd, even = _exp_series(x)
        return math.exp(-x) * (np.euler_gamma + math.log(x) + odd + even)
    # sum_k k!/x^k, stopped at convergence or at its smallest term
    total = term = 1.0
    for k in range(1, _MAX_TERMS):
        prev = term
        term *= k / x
        if term < _EPS * total or term >= prev:
            break
        total += term
    return total / x


@lru_cache(maxsize=None)
def _sine_integral(a: float) -> float:
    """integral_0^inf sin(a t) / (1+t^2) dt, odd in a.

    For x = |a| > 0 the integral is (e^-x Ei(x) + e^x E1(x)) / 2.  Up to
    x = 1 both exponential integrals come from their power series (A&S
    5.1.10, 5.1.11), whose +-(gamma + ln x) parts combine into one sinh
    term, so tiny x loses nothing to cancellation; above 1 the two scaled
    integrals are summed directly.
    """
    if a == 0.0:
        return 0.0
    x = abs(a)
    if x <= 1.0:
        odd, even = _exp_series(x)
        val = math.cosh(x) * odd - math.sinh(x) * (np.euler_gamma + math.log(x) + even)
    else:
        val = 0.5 * (_scaled_ei(x) + _scaled_e1(x))
    return math.copysign(val, a)


def _pair_inner(delta: float) -> complex:
    """<e_a, e_b> for delta = a - b: both parts in closed form."""
    return complex(0.5 * math.pi * math.exp(-abs(delta)), _sine_integral(delta))


@lru_cache(maxsize=None)
def _gram(freqs: tuple) -> np.ndarray:
    """Hermitian Gram matrix of the exponentials at the given frequencies."""
    M = len(freqs)
    G = np.empty((M, M), dtype=complex)
    for m in range(M):
        G[m, m] = 0.5 * math.pi
        for n in range(m + 1, M):
            # oriented so that conj(c) @ G @ c sums c_p conj(c_q) <e_p, e_q>
            z = _pair_inner(freqs[n] - freqs[m])
            G[m, n] = z
            G[n, m] = z.conjugate()
    # the cache hands this one array to every caller
    G.flags.writeable = False
    return G


def _quadratic_norm(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sqrt(conj(c) @ G @ c) for every coefficient row c on the last axis.

    einsum rounds each row alike wherever it sits in the batch (a BLAS
    matmul does not), so equal rows get equal scores and beam ties stay ties.
    """
    w = np.einsum("...m,mn->...n", np.conj(rows), G)
    val = np.einsum("...n,...n->...", w, rows).real
    return np.sqrt(np.maximum(val, 0.0))


@dataclass(frozen=True)
class ExpSpan:
    """Finite span sum c_m * e_{eta_m}; equal frequencies merge on creation."""

    terms: tuple

    def __post_init__(self):
        merged: dict = {}
        for c, eta in self.terms:
            eta = float(eta)
            merged[eta] = merged.get(eta, 0.0 + 0.0j) + complex(c)
        cleaned = tuple(
            (c, eta) for eta, c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=complex)

    @property
    def frequencies(self) -> tuple:
        return tuple(eta for _, eta in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def translate(v: ExpSpan, t: float) -> ExpSpan:
    """Shift action: each coefficient picks up the unimodular e^{i eta t}.

    The base norm is not invariant under this (the half-line weight is not
    translation invariant); only the coefficient moduli are preserved.
    """
    t = float(t)
    return ExpSpan(tuple((c * cmath.exp(1j * eta * t), eta) for c, eta in v.terms))


def base_norm(v: ExpSpan) -> float:
    """Weighted half-line L2 norm of a finite exponential span.

    Single exponentials and spans whose pairwise coefficient products are
    real use cosine-only closed forms; anything else brings in the sine
    parts through the Gram matrix.  The coefficients are scaled first by a
    power of two taken from the largest part, as construction._norm2 does.
    """
    if v.is_zero():
        return 0.0
    e = math.frexp(max(max(abs(c.real), abs(c.imag)) for c, _ in v.terms))[1]
    coeffs = np.array([complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c, _ in v.terms])
    if len(v.terms) == 1:
        norm = abs(coeffs[0]) * ROOT_HALF_PI
    elif len(v.terms) == 2 and (cross := coeffs[0] * coeffs[1].conjugate()).imag == 0.0:
        delta = v.frequencies[0] - v.frequencies[1]
        sq = 0.5 * math.pi * (
            abs(coeffs[0]) ** 2 + abs(coeffs[1]) ** 2
        ) + 2.0 * cross.real * 0.5 * math.pi * math.exp(-abs(delta))
        norm = math.sqrt(max(sq, 0.0))
    else:
        norm = float(_quadratic_norm(coeffs, _gram(v.frequencies)))
    return math.ldexp(norm, e)


@dataclass(frozen=True)
class StarNormValue:
    """Truncated renormed value with its truncation and soundness mode."""

    value: float
    J: int
    K: int
    mode: str  # exact-factorized | searched-lower-bound | analytic-upper-bound
    base: float
    upper: float
    search: str = ""  # exhaustive | beam | "" when no tuple search ran


def _factor_table(freqs: tuple, seq: IndexSequence, K: int) -> np.ndarray:
    """factors[m, k-1] = exp(i eta_m n_k) - 1."""
    out = np.empty((len(freqs), K), dtype=complex)
    for m, eta in enumerate(freqs):
        for k in range(1, K + 1):
            out[m, k - 1] = cmath.exp(1j * eta * seq.terms[k - 1]) - 1.0
    return out


def _tuple_count(J: int, K: int) -> int:
    """Index multisets of orders 0..J: sum_j C(K+j, j+1), by the hockey-stick identity."""
    return math.comb(K + J + 1, K) - 1


def _multiset_maxima(start, factors, score, orders: int, width: int | None) -> np.ndarray:
    """Per-item, per-order maxima of score(start * prod_k factors[:, :, k]) over index multisets.

    Item b multiplies its start row start[b] (M,) by columns of factors[b]
    (M, K); row b of the (B, orders) result holds its maxima.  Order j runs
    over the non-decreasing index tuples of length j + 1, and each tuple is
    extended by every index from its last one on, so each multiset is
    reached once.  score(rows, items) maps the (b, R, M) frontier of the
    batch slice ``items`` to (b, R) non-negative floats.

    width=None keeps the whole frontier (exhaustive), and every item shares
    one (parent, last) index plan.  Otherwise each item keeps its width best
    rows by (-score, last index), stably sorted, and every kept row gets all
    K children; those below its last index repeat a multiset, so they are
    marked invalid, sorted after every valid row and scored 0.  The walk
    stops early once every frontier row is exactly zero, since all later
    products are zero too; the remaining maxima stay 0.

    Items go through in chunks whose frontiers hold about _FRONTIER_ROWS
    rows in all.  Every step acts on each item's rows alone, so an item's
    maxima are the same bits in any batch as in a batch of one.
    """
    B, _, K = factors.shape
    maxima = np.zeros((B, orders))
    # an item's largest frontier: its last order's multisets, or the padded beam
    per_item = math.comb(K + orders - 1, orders) if width is None else width * K
    step = max(1, _FRONTIER_ROWS // max(1, per_item))
    for lo in range(0, B, step):
        items = slice(lo, lo + step)
        _walk(start[items], np.swapaxes(factors[items], 1, 2),
              lambda rows, items=items: score(rows, items), maxima[items], width)
    return maxima


def _walk(start, cols, score, maxima, width) -> None:
    """One chunk of _multiset_maxima: cols is (b, K, M); fills maxima (b, orders) in place."""
    b, K, M = cols.shape
    rows = start[:, None, :] * cols
    last = np.arange(K)
    valid = True
    for j in range(maxima.shape[1]):
        if not rows.any():
            break
        scores = np.where(valid, score(rows), 0.0)
        maxima[:, j] = scores.max(axis=1, initial=0.0)
        if j + 1 == maxima.shape[1]:
            break
        if width is None:
            counts = K - last
            parent = np.repeat(np.arange(len(last)), counts)
            first = np.repeat(np.cumsum(counts) - counts, counts)
            last = last[parent] + np.arange(len(parent)) - first
            rows = rows[:, parent] * cols[:, last]
            continue
        # Children are laid out child-major, so a row's frontier position
        # orders it by (last index, parent rank), and one stable sort on
        # -score, invalid rows keyed last, gives the (-score, last index)
        # order that extending the kept rows one by one would.
        key = np.where(valid, -scores, np.inf)
        keep = np.argsort(key, axis=1, kind="stable")[:, :width]
        rows = np.take_along_axis(rows, keep[:, :, None], axis=1)
        kept_valid = np.take_along_axis(np.broadcast_to(valid, key.shape), keep, axis=1)
        children = np.arange(K)[:, None]
        valid = (kept_valid[:, None, :] & (children >= last[keep][:, None, :])).reshape(b, -1)
        rows = (rows[:, None, :, :] * cols[:, :, None, :]).reshape(b, -1, M)
        last = np.repeat(np.arange(K), keep.shape[1])


def star_norm(v: ExpSpan, seq: IndexSequence, J: int, K: int) -> StarNormValue:
    """Truncated renormed value max(base, scaled product suprema).

    Single exponentials factorize exactly: every product is the coefficient
    times scalar factors of modulus <= 2, so the scaled supremum is dominated
    by the base norm at every order and the result is exact for all (J, K).
    General spans get a deterministic searched lower bound (exhaustive when
    the multiset count is small, beam otherwise) plus a triangle-inequality
    upper bound on the untruncated supremum.  The search multiplies factors
    scaled by 1/4, which is exact, so order-j products carry their 4^-(j+1)
    weight from the start: they shrink instead of overflowing at large J,
    and the walk ends once they all underflow to zero.
    """
    return _star_norms([v], seq, J, K)[0]


def _star_norms(spans, seq: IndexSequence, J: int, K: int) -> list:
    """star_norm of every span at one truncation; searched spans of one width walk together."""
    if J < 0 or K < 0:
        raise ConfigInvalid(f"truncation orders must be >= 0, got J={J} K={K}")
    if K > len(seq):
        raise HorizonExceedsSequence(f"K={K} outside 0..{len(seq)}")
    values = [None] * len(spans)
    searched = {}  # span width M -> indices of the spans that need the tuple search
    for i, v in enumerate(spans):
        if v.is_zero():
            values[i] = StarNormValue(0.0, J, K, "exact-factorized", 0.0, 0.0)
        elif len(v.terms) == 1 or K == 0:
            # one frequency: scaled suprema are base * (s/4)^(j+1) <= base / 2;
            # K == 0 leaves no tuples at all
            base = base_norm(v)
            values[i] = StarNormValue(base, J, K, "exact-factorized", base, base)
        else:
            searched.setdefault(len(v.terms), []).append(i)
    exhaustive = _tuple_count(J, K) <= EXHAUSTIVE_LIMIT
    search = "exhaustive" if exhaustive else "beam"
    for group in searched.values():
        batch = [spans[i] for i in group]
        coeffs = np.array([v.coefficients for v in batch])
        factors = np.array([_factor_table(v.frequencies, seq, K) for v in batch])
        grams = [_gram(v.frequencies) for v in batch]

        # one einsum per item: over a stack of Grams it gives the same
        # bits but runs about three times slower
        def score(rows, items, grams=grams):
            return np.array([_quadratic_norm(r, G) for r, G in zip(rows, grams[items])])

        # order-j products are below max|c| 2^-(j+1) < 2^(top-j-1), so every order from
        # top + 1074 on, under half the least subnormal, is 0 and the walk stops there
        top = math.frexp(float(np.abs(coeffs).max()))[1]
        orders = min(J + 1, top + 1075)
        maxima = _multiset_maxima(coeffs, factors / 4.0, score, orders, None if exhaustive else BEAM_WIDTH)
        for i, v, c, f, m in zip(group, batch, coeffs, factors, maxima):
            base = base_norm(v)
            s_max = np.abs(f).max(axis=1)
            bound0 = ROOT_HALF_PI * float(np.sum(np.abs(c) * s_max)) / 4.0
            values[i] = StarNormValue(
                max(base, float(m.max())), J, K, "searched-lower-bound",
                base, max(base, bound0), search,
            )
    return values


def _fields_with_rows(report) -> dict:
    """A report's fields, its rows as a list of field dicts; no deep copy, unlike dataclasses.asdict."""
    return {**vars(report), "rows": [dict(vars(row)) for row in report.rows]}


@dataclass(frozen=True)
class TranslationRow:
    sample: int
    k: int
    n_k: int
    left: float
    right: float
    ratio: float
    asserted: bool
    ok: bool


@dataclass(frozen=True)
class TranslationBoundReport:
    J: int
    K: int
    P: int
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    def to_json_dict(self) -> dict:
        return {**_fields_with_rows(self), "all_ok": self.all_ok, "max_ratio": self.max_ratio}


def verify_translation_bound(seq: IndexSequence, samples, J: int, K: int, P: int) -> TranslationBoundReport:
    """Renormed shift bound: translate by n_k costs at most a factor 5.

    Sound at matched truncations: each product tuple against the translated
    vector maps to a tuple one factor longer (appending k) against the
    original, so the truncated value at (J, K) of the translate is at most
    5x the truncated value at (J+1, K) of the original whenever k <= K.
    The inequality is hard-asserted for spans of at most two exponentials
    evaluated exhaustively; wider spans and k > K rows are report-only.
    """
    if not 1 <= P <= len(seq):
        raise HorizonExceedsSequence(f"P={P} outside 1..{len(seq)}")
    samples = list(samples)
    rights = _star_norms(samples, seq, J + 1, K)
    lefts = iter(_star_norms([translate(v, n) for v in samples for n in seq.terms[:P]], seq, J, K))
    rows = []
    for s_i, (v, right) in enumerate(zip(samples, rights)):
        for k in range(1, P + 1):
            n_k = seq.terms[k - 1]
            left = next(lefts)
            if right.value == 0.0:
                ratio = 0.0 if left.value == 0.0 else math.inf
            else:
                ratio = left.value / right.value
            tight = len(v.terms) <= 2 and left.search in ("", "exhaustive")
            asserted = tight and k <= K
            ok = (not asserted) or left.value <= 5.0 * right.value * (1.0 + TRANSLATION_TOL)
            rows.append(
                TranslationRow(s_i, k, n_k, left.value, right.value, ratio, asserted, ok)
            )
    return TranslationBoundReport(J, K, P, tuple(rows))


@dataclass(frozen=True)
class DjBoundRow:
    j: int
    value: float
    bound: float
    method: str
    ok: bool


@dataclass(frozen=True)
class DjBoundReport:
    eta: float
    xi: float
    d_zero: float
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {**_fields_with_rows(self), "all_ok": self.all_ok}


def _abs_difference(rows: np.ndarray, items=None) -> np.ndarray:
    return np.abs(rows[..., 0] - rows[..., 1])


def dj_bound_check(
    eta: float, xi: float, seq: IndexSequence, J: int, K: int
) -> DjBoundReport:
    """Product-difference suprema against the (j+1) 2^j scaling of the base gap.

    d_j is the supremum over index tuples of |prod(a) - prod(b)| with factors
    a = e^{i eta n_k} - 1 and b likewise for xi.  Each factor has modulus at
    most 2 and per-factor difference at most d_0, so d_j <= (j+1) 2^j d_0.
    The multiset search gives every order at once: orders j <= 3 within the
    tuple budget exhaustively, the rest from one deterministic beam.  d_0 is
    the order-0 maximum, so the base case holds with equality.  J is capped
    where (J+1) 2^J would overflow a double.
    """
    return dj_bound_checks([(eta, xi)], seq, J, K)[0]


def dj_bound_checks(pairs, seq: IndexSequence, J: int, K: int) -> list:
    """dj_bound_check for every (eta, xi) pair at one truncation, in one batched walk."""
    if J < 0 or K < 0:
        raise ConfigInvalid(f"truncation orders must be >= 0, got J={J} K={K}")
    if J + (J + 1).bit_length() > sys.float_info.max_exp:
        raise ConfigInvalid(f"J={J}: the bound (J+1) 2^J overflows a double")
    if K > len(seq):
        raise HorizonExceedsSequence(f"K={K} outside 0..{len(seq)}")
    pairs = [(float(eta), float(xi)) for eta, xi in pairs]
    factors = np.array([_factor_table(pair, seq, K) for pair in pairs]).reshape(len(pairs), 2, K)
    start = np.ones((len(pairs), 2), dtype=complex)
    # exhaustive orders form a prefix: the tuple count grows with j
    budget = sum(math.comb(K + j, j + 1) <= EXHAUSTIVE_LIMIT for j in range(4))
    n_exact = J + 1 if K == 0 else min(J + 1, budget)
    values = _multiset_maxima(start, factors, _abs_difference, n_exact, None)
    if n_exact <= J:
        beam = _multiset_maxima(start, factors, _abs_difference, J + 1, BEAM_WIDTH)
        values = np.concatenate([values, beam[:, n_exact:]], axis=1)
    reports = []
    for (eta, xi), vals in zip(pairs, values):
        d_zero = float(vals[0])
        rows = []
        for j, value in enumerate(vals.tolist()):
            method = "exhaustive" if j < n_exact else "beam"
            bound = (j + 1) * (2.0 ** j) * d_zero
            rows.append(DjBoundRow(j, value, bound, method, value <= bound * (1.0 + 1e-12)))
        reports.append(DjBoundReport(eta, xi, d_zero, tuple(rows)))
    return reports


@dataclass(frozen=True)
class EigenfieldRow:
    eta: float
    xi: float
    base: float
    d_zero: float
    star_searched: float
    star_upper: float
    ratio: float
    ok: bool


@dataclass(frozen=True)
class EigenfieldTable:
    ceiling: float
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    def csv_rows(self) -> list:
        return [
            (r.eta, r.xi, r.base, r.d_zero, r.star_searched, r.star_upper, r.ratio)
            for r in self.rows
        ]

    def to_json_dict(self) -> dict:
        return {
            "ceiling": self.ceiling,
            "max_ratio": self.max_ratio,
            "all_ok": self.all_ok,
            "rows": [list(row) for row in self.csv_rows()],
        }


def eigenfield_modulus(
    seq: IndexSequence, frequencies, J: int, K: int
) -> EigenfieldTable:
    """Pairwise continuity table for the frequency-to-exponential map.

    For each pair the renormed distance between exponentials is compared to
    base-norm distance plus the index-sequence gap d_0; the observed ratio is
    recorded against the ceiling sqrt(pi/2) + 1.  Frequencies are radians;
    convert torus points with sequences.turns_to_radians first.
    """
    freqs = [float(x) for x in frequencies]
    if len(freqs) < 2:
        raise ConfigInvalid("need at least two frequencies to tabulate pairs")
    ceiling = ROOT_HALF_PI + 1.0
    pairs = [(freqs[m], freqs[n]) for m in range(len(freqs)) for n in range(m + 1, len(freqs))]
    d_zeros = [report.d_zero for report in dj_bound_checks(pairs, seq, 0, K)]
    diffs = [ExpSpan(((1.0, eta), (-1.0, xi))) for eta, xi in pairs]
    stars = _star_norms(diffs, seq, J, K)
    rows = []
    for (eta, xi), diff, d0, star in zip(pairs, diffs, d_zeros, stars):
        b = base_norm(diff)
        denom = b + d0
        ratio = star.value / denom if denom > 0 else 0.0
        rows.append(
            EigenfieldRow(
                eta, xi, b, d0, star.value, star.upper, ratio,
                ratio <= ceiling + 1e-9,
            )
        )
    return EigenfieldTable(ceiling, tuple(rows))
