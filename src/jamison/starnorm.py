"""Weighted half-line norm on exponential spans and the renorming bound.

The base norm is ||f|| = (integral_0^inf |f(t)|^2 / (1+t^2) dt)^(1/2) on
finite spans of exponentials e_eta(t) = exp(i eta t).  On top of it sits a
truncated renormed value that takes the max of the base norm against scaled
suprema of products of (shift-minus-identity) factors along an index
sequence.  Shifts act diagonally on exponentials, so every product reduces
to scalar factors and all searches run over multisets of sequence indices.

Frequencies are radians per unit time throughout this module; torus points
from the sequences module live in turns.  sequences.turns_to_radians /
radians_to_turns are the single conversion boundary.  scipy.integrate is
imported only by the sine integral, so importing this module loads no scipy.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigInvalid, HorizonExceedsSequence
from .sequences import IndexSequence

ROOT_HALF_PI = math.sqrt(math.pi / 2.0)
EXHAUSTIVE_LIMIT = 20000
DEFAULT_BEAM_WIDTH = 32
SINE_QUAD_TOL = 1e-11


@lru_cache(maxsize=None)
def _sine_integral(a: float) -> float:
    """integral_0^inf sin(a t) / (1+t^2) dt, odd in a.

    No elementary closed form exists; the semi-infinite Fourier rule handles
    the oscillatory tail by cycle extrapolation and lands well inside 1e-10.
    """
    if a == 0.0:
        return 0.0
    from scipy.integrate import quad

    val, _ = quad(
        lambda t: 1.0 / (1.0 + t * t), 0.0, np.inf,
        weight="sin", wvar=abs(a), epsabs=SINE_QUAD_TOL, epsrel=0.0,
    )
    return math.copysign(val, a)


def _pair_inner(delta: float) -> complex:
    """<e_a, e_b> for delta = a - b: cosine part closed form, sine by quadrature."""
    return complex(0.5 * math.pi * math.exp(-abs(delta)), _sine_integral(delta))


_GRAM_CACHE: dict = {}


def _gram(freqs: tuple) -> np.ndarray:
    """Hermitian Gram matrix of the exponentials at the given frequencies."""
    G = _GRAM_CACHE.get(freqs)
    if G is not None:
        return G
    M = len(freqs)
    G = np.empty((M, M), dtype=complex)
    for m in range(M):
        G[m, m] = 0.5 * math.pi
        for n in range(m + 1, M):
            # oriented so that conj(c) @ G @ c sums c_p conj(c_q) <e_p, e_q>
            z = _pair_inner(freqs[n] - freqs[m])
            G[m, n] = z
            G[n, m] = z.conjugate()
    G.flags.writeable = False
    _GRAM_CACHE[freqs] = G
    return G


def _quadratic_norm(coeffs: np.ndarray, G: np.ndarray) -> float:
    val = float(np.real(np.conj(coeffs) @ G @ coeffs))
    return math.sqrt(max(val, 0.0))


@dataclass(frozen=True)
class ExponentialVector:
    """Single exponential t -> exp(i frequency t) on the half line."""

    frequency: float

    def as_span(self) -> "ExpSpan":
        return ExpSpan(((1.0 + 0.0j, float(self.frequency)),))


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
    real use cosine-only closed forms; anything else brings in the
    quadrature-backed sine parts through the Gram matrix.
    """
    if v.is_zero():
        return 0.0
    coeffs = v.coefficients
    if len(v.terms) == 1:
        return abs(coeffs[0]) * ROOT_HALF_PI
    if len(v.terms) == 2:
        cross = coeffs[0] * coeffs[1].conjugate()
        if cross.imag == 0.0:
            delta = v.frequencies[0] - v.frequencies[1]
            sq = 0.5 * math.pi * (
                abs(coeffs[0]) ** 2 + abs(coeffs[1]) ** 2
            ) + 2.0 * cross.real * 0.5 * math.pi * math.exp(-abs(delta))
            return math.sqrt(max(sq, 0.0))
    return _quadratic_norm(coeffs, _gram(v.frequencies))


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

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "J": self.J,
            "K": self.K,
            "mode": self.mode,
            "base": self.base,
            "upper": self.upper,
            "search": self.search,
        }


def _factor_table(freqs: tuple, seq: IndexSequence, K: int) -> np.ndarray:
    """factors[m, k-1] = exp(i eta_m n_k) - 1."""
    out = np.empty((len(freqs), K), dtype=complex)
    for m, eta in enumerate(freqs):
        for k in range(1, K + 1):
            out[m, k - 1] = cmath.exp(1j * eta * seq.terms[k - 1]) - 1.0
    return out


def _tuple_count(J: int, K: int) -> int:
    return sum(math.comb(K + j, j + 1) for j in range(J + 1))


def _search_exhaustive(coeffs, factors, G, J: int, K: int) -> float:
    best = 0.0
    for j in range(J + 1):
        scale = 4.0 ** -(j + 1)
        for combo in combinations_with_replacement(range(K), j + 1):
            mod = coeffs.copy()
            for k in combo:
                mod *= factors[:, k]
            best = max(best, scale * _quadratic_norm(mod, G))
    return best


def _search_beam(coeffs, factors, G, J: int, K: int, width: int) -> float:
    best = 0.0
    # state: (last index, modified coefficient vector); extensions keep the
    # index multiset non-decreasing so each multiset is visited once
    frontier = []
    for k in range(K):
        mod = coeffs * factors[:, k]
        frontier.append((k, mod))
    for j in range(J + 1):
        scale = 4.0 ** -(j + 1)
        scored = sorted(
            ((scale * _quadratic_norm(mod, G), k, mod) for k, mod in frontier),
            key=lambda item: (-item[0], item[1]),
        )
        best = max(best, scored[0][0] if scored else 0.0)
        kept = scored[:width]
        if j == J:
            break
        frontier = [
            (k2, mod * factors[:, k2])
            for _, k, mod in kept
            for k2 in range(k, K)
        ]
    return best


def star_norm(
    v: ExpSpan,
    seq: IndexSequence,
    J: int,
    K: int,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> StarNormValue:
    """Truncated renormed value max(base, scaled product suprema).

    Single exponentials factorize exactly: every product is the coefficient
    times scalar factors of modulus <= 2, so the scaled supremum is dominated
    by the base norm at every order and the result is exact for all (J, K).
    General spans get a deterministic searched lower bound (exhaustive when
    the multiset count is small, beam otherwise) plus a triangle-inequality
    upper bound on the untruncated supremum.
    """
    if J < 0 or K < 0:
        raise ConfigInvalid(f"truncation orders must be >= 0, got J={J} K={K}")
    if K > len(seq):
        raise HorizonExceedsSequence(f"K={K} outside 0..{len(seq)}")
    if v.is_zero():
        return StarNormValue(0.0, J, K, "exact-factorized", 0.0, 0.0)
    base = base_norm(v)
    if len(v.terms) == 1 or K == 0:
        # one frequency: scaled suprema are base * (s/4)^(j+1) <= base / 2;
        # K == 0 leaves no tuples at all
        return StarNormValue(base, J, K, "exact-factorized", base, base)
    coeffs = v.coefficients
    factors = _factor_table(v.frequencies, seq, K)
    G = _gram(v.frequencies)
    if _tuple_count(J, K) <= exhaustive_limit:
        searched = _search_exhaustive(coeffs, factors, G, J, K)
        search = "exhaustive"
    else:
        searched = _search_beam(coeffs, factors, G, J, K, beam_width)
        search = "beam"
    s_max = np.abs(factors).max(axis=1)
    bound0 = ROOT_HALF_PI * float(np.sum(np.abs(coeffs) * s_max)) / 4.0
    return StarNormValue(
        max(base, searched), J, K, "searched-lower-bound",
        base, max(base, bound0), search,
    )


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
        return {
            "J": self.J,
            "K": self.K,
            "P": self.P,
            "all_ok": self.all_ok,
            "max_ratio": self.max_ratio,
            "rows": [
                {
                    "sample": r.sample, "k": r.k, "n_k": r.n_k,
                    "left": r.left, "right": r.right, "ratio": r.ratio,
                    "asserted": r.asserted, "ok": r.ok,
                }
                for r in self.rows
            ],
        }


def verify_translation_bound(
    seq: IndexSequence, samples, J: int, K: int, P: int, tol: float = 1e-6
) -> TranslationBoundReport:
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
    rows = []
    for s_i, v in enumerate(samples):
        right = star_norm(v, seq, J + 1, K)
        for k in range(1, P + 1):
            n_k = seq.terms[k - 1]
            left = star_norm(translate(v, n_k), seq, J, K)
            if right.value == 0.0:
                ratio = 0.0 if left.value == 0.0 else math.inf
            else:
                ratio = left.value / right.value
            tight = len(v.terms) <= 2 and left.search in ("", "exhaustive")
            asserted = tight and k <= K
            ok = (not asserted) or left.value <= 5.0 * right.value * (1.0 + tol)
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
        return {
            "eta": self.eta,
            "xi": self.xi,
            "d_zero": self.d_zero,
            "all_ok": self.all_ok,
            "rows": [
                {
                    "j": r.j, "value": r.value, "bound": r.bound,
                    "method": r.method, "ok": r.ok,
                }
                for r in self.rows
            ],
        }


def _dj_beam(fa, fb, J_target: int, K: int, width: int) -> float:
    frontier = [(k, fa[k], fb[k]) for k in range(K)]
    for _ in range(J_target):
        scored = sorted(
            frontier, key=lambda item: (-abs(item[1] - item[2]), item[0])
        )[:width]
        frontier = [
            (k2, pa * fa[k2], pb * fb[k2])
            for k, pa, pb in scored
            for k2 in range(k, K)
        ]
    return max((abs(pa - pb) for _, pa, pb in frontier), default=0.0)


def dj_bound_check(
    eta: float, xi: float, seq: IndexSequence, J: int, K: int,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> DjBoundReport:
    """Product-difference suprema against the (j+1) 2^j scaling of the base gap.

    d_j is the supremum over index tuples of |prod(a) - prod(b)| with factors
    a = e^{i eta n_k} - 1 and b likewise for xi.  Each factor has modulus at
    most 2 and per-factor difference at most d_0, so d_j <= (j+1) 2^j d_0;
    j = 0 is d_0 itself.  Exhaustive for j <= 3 within the tuple budget,
    deterministic beam beyond.
    """
    if J < 0 or K < 0:
        raise ConfigInvalid(f"truncation orders must be >= 0, got J={J} K={K}")
    if K > len(seq):
        raise HorizonExceedsSequence(f"K={K} outside 0..{len(seq)}")
    eta, xi = float(eta), float(xi)
    fa = np.array([cmath.exp(1j * eta * n) - 1.0 for n in seq.terms[:K]])
    fb = np.array([cmath.exp(1j * xi * n) - 1.0 for n in seq.terms[:K]])
    # scalar loop keeps the arithmetic identical to the j = 0 enumeration,
    # so the base-case equality holds bitwise
    d_zero = max((abs(fa[k] - fb[k]) for k in range(K)), default=0.0)
    rows = []
    for j in range(J + 1):
        if K == 0:
            value, method = 0.0, "exhaustive"
        elif j <= 3 and math.comb(K + j, j + 1) <= EXHAUSTIVE_LIMIT:
            value = 0.0
            for combo in combinations_with_replacement(range(K), j + 1):
                pa = pb = 1.0 + 0.0j
                for k in combo:
                    pa *= fa[k]
                    pb *= fb[k]
                value = max(value, abs(pa - pb))
            method = "exhaustive"
        else:
            value = _dj_beam(fa, fb, j, K, beam_width)
            method = "beam"
        bound = (j + 1) * (2.0 ** j) * d_zero
        rows.append(DjBoundRow(j, value, bound, method, value <= bound * (1.0 + 1e-12)))
    return DjBoundReport(eta, xi, d_zero, tuple(rows))


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
    convert torus points with turns_to_radians first.
    """
    freqs = [float(x) for x in frequencies]
    if len(freqs) < 2:
        raise ConfigInvalid("need at least two frequencies to tabulate pairs")
    ceiling = ROOT_HALF_PI + 1.0
    rows = []
    for m in range(len(freqs)):
        for n in range(m + 1, len(freqs)):
            eta, xi = freqs[m], freqs[n]
            diff = ExpSpan(((1.0, eta), (-1.0, xi)))
            b = base_norm(diff)
            d0 = dj_bound_check(eta, xi, seq, 0, K).d_zero
            star = star_norm(diff, seq, J, K)
            denom = b + d0
            ratio = star.value / denom if denom > 0 else 0.0
            rows.append(
                EigenfieldRow(
                    eta, xi, b, d0, star.value, star.upper, ratio,
                    ratio <= ceiling + 1e-9,
                )
            )
    return EigenfieldTable(ceiling, tuple(rows))
