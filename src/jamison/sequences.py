"""Torus arithmetic and separation analysis for power sequences.

Angles live in turns (fractions of a full circle) and are carried as exact
`fractions.Fraction` values wherever a downstream computation could hinge on
cancellation: the searches in this module certify fractional parts far below
double-precision resolution.  Floats appear only inside the vectorized box
search, whose products are exact and whose bounds carry a rounding margin,
and every reported point is re-checked in exact arithmetic.  An angle is a
plain Fraction that nothing reduces beforehand: unit_point, unit_diff,
chord_distance, d_metric and signed_turns give the same bits when a whole
number of turns is added to any of their angles.

The central quantity is f_K(theta) = max over the first K sequence terms t of
the distance from t*theta to the nearest integer.  A sequence "separates" when
f_K stays bounded away from zero; the searches below certify an interval for
that floor and hunt for points where it is beaten.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateInput,
    EmptyHorizons,
    HorizonExceedsSequence,
    InvalidEta,
    InvalidResolution,
    OutOfDomain,
    PreconditionViolated,
)

Angle = Union[Fraction, float, int]
_HALF = Fraction(1, 2)

# Verdict labels for classify_jamison.
SEPARATED = "SEPARATED"
VANISHING = "VANISHING"
INCONCLUSIVE = "INCONCLUSIVE"


def torus_norm(theta: Angle):
    """Distance from ``theta`` (in turns) to the nearest integer.

    Exact for Fraction input (returns a Fraction); floats return a float.
    Total on finite inputs, result in [0, 1/2].
    """
    if isinstance(theta, Fraction):
        frac = theta % 1
        return min(frac, 1 - frac)
    x = float(theta) % 1.0
    return min(x, 1.0 - x)


def turns_to_radians(theta: Angle) -> float:
    """Angle in turns (torus convention) to radians (frequency convention)."""
    return 2.0 * math.pi * float(theta)


def chord_from_torus(delta: Angle) -> float:
    """Chord length |e^{2 pi i delta} - 1| = 2 sin(pi * torus_norm(delta))."""
    return 2.0 * math.sin(math.pi * float(torus_norm(delta)))


def torus_from_chord(chord: float) -> float:
    """Torus norm in [0, 1/2] whose chord is ``chord`` clamped to [0, 2]: asin(c / 2) / pi."""
    return math.asin(min(1.0, max(chord, 0.0) / 2.0)) / math.pi


def unit_point(theta: Fraction, t: Fraction | int = 1) -> complex:
    """e^(2 pi i t theta), from the integer residue of t * theta mod 1.

    With t = a/b and theta = p/q, t * theta mod 1 is r / (b q) for
    r = a p mod b q.  Python's int / int is correctly rounded, so the angle
    is the double that float(Fraction(t * theta) % 1) gives, without the
    Fraction's gcd normalisation.
    """
    d = t.denominator * theta.denominator
    phi = turns_to_radians(t.numerator * theta.numerator % d / d)
    return complex(math.cos(phi), math.sin(phi))


def signed_turns(theta: Fraction) -> Fraction:
    """The representative of an angle (turns) in [-1/2, 1/2)."""
    return (theta + _HALF) % 1 - _HALF


def chord_distance(a: Fraction, b: Fraction) -> float:
    """|e^{2 pi i a} - e^{2 pi i b}|, in [0, 2]."""
    return chord_from_torus(a - b)


def unit_diff(a: Fraction, b: Fraction) -> complex:
    """e^{2 pi i a} - e^{2 pi i b} without subtractive cancellation.

    The difference is written as e^{2 pi i b} * (e^{2 pi i d} - 1) with d the
    exact angle difference, and the bracket expanded in half-angle form, so the
    result keeps full relative accuracy even when d is far below 1e-16 turns.
    """
    return unit_step(float(signed_turns(a - b)), unit_point(b))


def unit_step(d: float, rot: complex = 1.0) -> complex:
    """rot * (e^{2 pi i d} - 1) in half-angle form, d an exact angle difference (turns) as a float."""
    s = math.sin(math.pi * d)
    c = math.cos(math.pi * d)
    return rot * (2.0 * s) * complex(-s, c)


@dataclass(frozen=True)
class IndexSequence:
    """Strictly increasing index sequence with first term 1.

    kind "integer" keeps the terms as ints; kind "real" allows arbitrary
    reals >= 1.
    """

    terms: tuple
    kind: str = "integer"

    def __post_init__(self):
        if self.kind not in ("integer", "real"):
            raise ConfigInvalid(f"unknown sequence kind {self.kind!r}")
        terms = tuple(self.terms)
        if not terms:
            raise ConfigInvalid("sequence needs at least one term")
        # bool is an int subclass, but true is not a term
        if any(isinstance(t, (bool, np.bool_)) for t in terms):
            raise ConfigInvalid("sequence terms must be numbers, not booleans")
        if any(not isinstance(t, int) and not math.isfinite(t) for t in terms):
            raise ConfigInvalid("sequence terms must be finite")
        if any(isinstance(t, int) and abs(t) > sys.float_info.max for t in terms):
            raise ConfigInvalid("sequence terms must lie within the double range")
        if self.kind == "integer":
            # ints stay exact; a float counts only where it is integral and
            # at most 2^53, since above that one double stands for many
            # integers (1e30 reads as 10^30 + 19884624838656)
            for t in terms:
                if isinstance(t, (int, np.integer)):
                    continue
                if float(t) != int(t):
                    raise PreconditionViolated(f"non-integer term {t!r} in integer sequence")
                if abs(t) > 2 ** 53:
                    raise ConfigInvalid(
                        f"float term {t!r} exceeds 2^53 and names no single integer; "
                        "write it as an integer literal"
                    )
            terms = tuple(int(t) for t in terms)
        else:
            terms = tuple(float(t) for t in terms)
        if terms[0] != 1:
            raise PreconditionViolated("first term must equal 1")
        for prev, cur in zip(terms, terms[1:]):
            if not cur > prev:
                raise PreconditionViolated("terms must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def prefix(self, K: int) -> tuple:
        """First K terms. K is 1-based: prefix(1) == (1,)."""
        if not 1 <= K <= len(self.terms):
            raise HorizonExceedsSequence(f"horizon {K} outside 1..{len(self.terms)}")
        return self.terms[:K]

    # ---- factories -----------------------------------------------------

    @classmethod
    def integers_up_to(cls, K: int) -> "IndexSequence":
        return cls(tuple(range(1, K + 1)), "integer")

    @classmethod
    def factorials(cls, max_n: int) -> "IndexSequence":
        """Deduplicated factorials 0!..max_n! (so max_n=8 gives 8 terms)."""
        vals = sorted({math.factorial(n) for n in range(max_n + 1)})
        return cls(tuple(vals), "integer")

    @classmethod
    def powers_of_two(cls, count: int) -> "IndexSequence":
        return cls(tuple(2 ** k for k in range(count)), "integer")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IndexSequence":
        try:
            return cls(tuple(obj["terms"]), obj.get("kind", "integer"))
        except (KeyError, TypeError) as exc:
            raise ConfigInvalid(f"bad sequence payload: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "terms": list(self.terms)}


def d_metric(a: Fraction, b: Fraction, seq: IndexSequence, K: int) -> float:
    """sup over the first K terms t of |a^t - b^t| (chordal units).

    Symmetric, satisfies the triangle inequality, non-decreasing in K, and
    dominates chord_distance whenever the sequence starts with 1.  A real
    term t takes a^t at the angle's representative in [0, 1).
    """
    terms = seq.prefix(K)
    delta = a % 1 - b % 1
    best = 0.0
    for t in terms:
        best = max(best, chord_from_torus(delta * Fraction(t)))
    return best


# ---------------------------------------------------------------------------
# box search
# ---------------------------------------------------------------------------


_SCRATCH = 1 << 16  # doubles per scratch buffer of the box search (512 kB), and boxes per round
_PART_BITS = 26  # significant bits of each double a term is split into
_ODD_RADIX = 3 ** 19  # each box's second point is the nearest a / 3^19, a power of 3 below 2^31
_MAX_WORK = 1 << 25  # term parts x boxes one search evaluates, about half a second, before it stops


def _f_exact(terms: Sequence, theta: Fraction) -> Fraction:
    """Exact f_K at an exact angle. Terms may be ints or floats (both exact).

    With theta = p/q and a term n/d, ||n p / (d q)|| = min(r, dq - r) / (dq)
    for r = n p mod dq, so the loop runs on integers alone and compares
    candidates by cross-multiplying; one Fraction is built at the end.
    """
    p, q = theta.as_integer_ratio()
    best_num, best_den = 0, 1
    for t in terms:
        n, d = t.as_integer_ratio()
        dq = d * q
        r = n * p % dq
        num = min(r, dq - r)
        if num * best_den > best_num * dq:
            best_num, best_den = num, dq
    return Fraction(best_num, best_den)


class _BoxSearch:
    """Lower bounds and values of f_K on boxes [lo, hi] of thetas in one domain.

    A box with centre c holds every theta within reach r of c, and since
    torus_norm is 1-Lipschitz, f_K(theta) >= max_k (||t_k c|| - t_k r) there
    (Piyavskii 1972; Hansen and Jaumard, "Lipschitz optimization", Handbook
    of Global Optimization, 1995); a term with t_k r >= 1/2 adds nothing.

    ||t c|| is formed from exact products at any term size.  Each term is
    split into doubles of at most 26 significant bits (one part for a term
    below 2^26 or a power of 2) and the centre into two 26-bit halves
    (Veltkamp's split), so every partial product is exact, and so is its
    reduction x - rint(x).  Only the sums of the reduced products round, by
    at most (1 + P^2) 2^-53 for a term of P parts, and the reach and the
    bound by a few 2^-53 more, so every bound is lowered by 2^-50 (1 + P^2)
    for the largest P (underflow aside, which errs by 2^-1074 a product).

    Each box is evaluated at its centre, a double and so a dyadic rational.
    Points of one radix are blind to its powers: a centre in (0, 1/2) ends at
    2^-54 or below, and reads exactly 1/2 on every term divisible by the power
    of 2 at its last bit.  So where a term reaches 2^53, every box of an
    integer sequence is also evaluated at a second point of coprime radix,
    the nearest a / 3^19 in the domain, reduced exactly in int64 as
    (t mod 3^19) a mod 3^19; the odd point keeps 2^k from stalling the upper
    end, and the centre keeps 3^k from stalling it.  Values are for ranking:
    a caller re-checks a point with _f_exact before it keeps it.

    Term parts x boxes go through three scratch buffers of at most _SCRATCH
    doubles, so boxes are taken _SCRATCH // (number of parts) at a time.
    """

    def __init__(self, terms: Sequence, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        parts, starts = [], []
        for t in terms:
            n, d = t.as_integer_ratio()
            starts.append(len(parts))
            for shift in range(0, n.bit_length(), _PART_BITS):
                digit = (n >> shift) & ((1 << _PART_BITS) - 1)
                if digit:
                    parts.append(math.ldexp(digit, shift) / d)
        self.parts = np.asarray(parts)
        self.starts = np.asarray(starts) if len(parts) > len(terms) else None
        self.terms = np.asarray([float(t) for t in terms])
        most = max(b - a for a, b in zip(starts, starts[1:] + [len(parts)]))
        self.margin = 2.0 ** -50 * (1 + most ** 2)
        self.chunk = max(1, _SCRATCH // len(parts))
        self.work = 0
        self.scratch = [np.empty(len(parts) * self.chunk) for _ in range(3)]
        self.odd = None
        if terms[-1] >= 2 ** 53 and all(isinstance(t, int) for t in terms):
            a_lo, a_hi = math.ceil(Fraction(lo) * _ODD_RADIX), math.floor(Fraction(hi) * _ODD_RADIX)
            if a_lo <= a_hi:
                self.odd = a_lo, a_hi
                self.residues = np.asarray([t % _ODD_RADIX for t in terms], dtype=np.int64)

    def _norms(self, c: np.ndarray) -> tuple:
        """||t c|| for the terms by the centres c in one buffer, and a free one of the same shape."""
        rows, cols = self.parts.size, c.size
        p, q, r = (b[:rows * cols].reshape(rows, cols) for b in self.scratch)
        split = c * 134217729.0  # 2^27 + 1
        high = split - (split - c)
        for out, half in ((p, high), (q, c - high)):
            np.multiply(self.parts[:, None], half, out=out)
            np.rint(out, out=r)
            np.subtract(out, r, out=out)
        np.add(p, q, out=p)
        if self.starts is not None:
            k = self.starts.size
            np.add.reduceat(p, self.starts, axis=0, out=q[:k])
            p, r = q[:k], r[:k]
        np.rint(p, out=r)
        np.subtract(p, r, out=p)
        np.abs(p, out=p)
        return p, r

    def _odd_norms(self, a: np.ndarray) -> np.ndarray:
        """max_k ||t_k a / 3^19|| for the points a / 3^19, reduced exactly in int64."""
        rows, cols = self.residues.size, a.size
        p, q = (b[:rows * cols].view(np.int64).reshape(rows, cols) for b in self.scratch[:2])
        np.multiply(self.residues[:, None], a, out=p)
        np.remainder(p, _ODD_RADIX, out=p)
        np.subtract(_ODD_RADIX, p, out=q)
        np.minimum(p, q, out=p)
        return p.max(axis=0) / _ODD_RADIX

    def evaluate(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """(bounds, values, point): a lower bound of f_K on each box, f_K's values at
        the centres and then at the odd points, and point(i), point i exactly."""
        n = lo.size
        self.work += n * self.parts.size
        c = lo + 0.5 * (hi - lo)
        reach = np.maximum(c - lo, hi - c) * (1.0 + 2.0 ** -50)  # covers the rounding of both differences
        a = np.clip(np.rint(c * _ODD_RADIX), *self.odd).astype(np.int64) if self.odd else None
        bounds, values = np.empty(n), np.empty(2 * n if self.odd else n)
        for s in range(0, n, self.chunk):
            e = min(s + self.chunk, n)
            norms, scratch = self._norms(c[s:e])
            values[s:e] = norms.max(axis=0)
            np.multiply(self.terms[:, None], reach[s:e], out=scratch)
            np.subtract(norms, scratch, out=norms)
            bounds[s:e] = norms.max(axis=0)
            if self.odd:
                values[n + s:n + e] = self._odd_norms(a[s:e])
        bounds -= self.margin

        def point(i: int) -> Fraction:
            return Fraction(c[i]) if i < n else Fraction(int(a[i - n]), _ODD_RADIX)

        return bounds, values, point

    def descend(self, width: float, keep) -> tuple:
        """(lower, truncated) of breadth-first rounds of boxes from the domain, each kept box cut in three.

        Each round evaluates its boxes; a box that keep(lo, hi, bounds, values,
        point) marks, wider than ``width`` and than 2^-50 hi (below that a cut
        is lost in the doubles), is cut into thirds, and every other is dropped:
        lower is the least bound of a dropped box.  When the next round would
        hold more than _SCRATCH boxes, or _MAX_WORK term parts x boxes have been
        evaluated, every box left is dropped and the walk ends truncated.
        """
        lo, hi = np.array([self.lo]), np.array([self.hi])
        lower, truncated = math.inf, False
        while lo.size:
            bounds, values, point = self.evaluate(lo, hi)
            cut = keep(lo, hi, bounds, values, point) & (hi - lo > np.maximum(width, 2.0 ** -50 * hi))
            if cut.any() and (3 * np.count_nonzero(cut) > _SCRATCH or self.work >= _MAX_WORK):
                cut[:], truncated = False, True
            lower = min(lower, float(bounds[~cut].min(initial=math.inf)))
            lo, hi = _split(lo[cut], hi[cut])
        return lower, truncated


def _split(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Each box [lo, hi] cut into thirds; neighbours share their ends, so the thirds cover it."""
    third = (hi - lo) / 3.0
    cuts = np.stack((lo, lo + third, hi - third, hi), axis=1)
    return cuts[:, :3].ravel(), cuts[:, 1:].ravel()


# ---------------------------------------------------------------------------
# separation constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Certified interval for inf f_K over the resolved part of (0, 1/2].

    The infimum of f_K over the searched domain [theta_min, 1/2] lies in
    [lower_bound_torus, epsilon_hat_torus].  epsilon_hat_torus is the exact f
    value at the reported witness; lower_bound_torus is the least box bound of
    the branch and bound.  The two are at most ``resolution`` apart unless
    truncated is set, when the box budget ended the search first, or doubles
    could not close the gap (see separation_constant).  boundary_limited
    marks the degenerate case where the default domain floor collapses to
    the resolution.
    """

    horizon: int
    epsilon_hat: float
    epsilon_hat_torus: float
    witness: Fraction
    resolution: float
    theta_min: float
    lower_bound_torus: float
    boundary_limited: bool
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "epsilon_hat": self.epsilon_hat,
            "epsilon_hat_torus": self.epsilon_hat_torus,
            "witness_theta": str(self.witness),
            "witness_theta_float": float(self.witness),
            "resolution": self.resolution,
            "theta_min": self.theta_min,
            "lower_bound_torus": self.lower_bound_torus,
            "boundary_limited": self.boundary_limited,
            "truncated": self.truncated,
        }


def separation_constant(
    seq: IndexSequence,
    K: int,
    resolution: float = 1e-6,
    theta_min: Optional[float] = None,
) -> SeparationReport:
    """Certify inf of f_K(theta) = max_{k<=K} torus_norm(t_k * theta) to within ``resolution``.

    At any finite horizon the infimum over all of (0, 1/2] is trivially zero
    (f_K(theta) <= t_K * theta near zero), so the search runs over the resolved
    domain [theta_min, 1/2], default theta_min = 1/(2 t_K), where the largest
    multiplier has wrapped at least half a turn.  Pass theta_min explicitly to
    pin the domain (for example when comparing horizons on a common domain).

    Branch and bound on boxes of thetas (_BoxSearch.descend) over the whole
    domain.  Each round keeps the point of least value as the witness; its
    exact f, from _f_exact at the end, is the upper end, and its value is
    that to within the search's rounding margin.  A box whose bound is within
    ``resolution`` of the value plus twice the margin is dropped, and the
    least bound of any dropped box is the lower end; every other box is cut
    in three.  So the run ends with upper - lower <= resolution, unless a box
    with t_K (hi - lo) <= resolution, which cutting could only close past the
    bound's margin, is dropped whatever its bound (only where doubles cannot
    resolve the interval), or the box budget runs out, when the report is
    marked truncated: the interval is still certified, only wider.

    A resolution outside (0, 1/2), or below the double spacing at 1/2, raises
    InvalidResolution.
    """
    if not (isinstance(K, int) and K >= 1):
        raise HorizonExceedsSequence(f"horizon must be a positive integer, got {K!r}")
    terms_exact = seq.prefix(K)
    if not (0.0 < resolution < 0.5):
        raise InvalidResolution(f"resolution {resolution!r} outside (0, 1/2)")
    if resolution < math.ulp(0.5):
        raise InvalidResolution(f"resolution {resolution!r} is below the double spacing at 1/2")

    n_K = float(terms_exact[-1])
    boundary_limited = False
    if theta_min is None:
        if n_K <= 1.0:
            theta_min = resolution
            boundary_limited = True
        else:
            theta_min = 1.0 / (2.0 * n_K)
    else:
        theta_min = float(theta_min)
        if not (0.0 < theta_min < 0.5):
            raise OutOfDomain(f"theta_min {theta_min!r} outside (0, 1/2)")

    search = _BoxSearch(terms_exact, theta_min, 0.5)
    upper, witness = math.inf, None

    def keep(lo, hi, bounds, values, point):
        nonlocal upper, witness
        i = int(np.argmin(values))
        if values[i] < upper:
            upper, witness = float(values[i]), point(i)
        # the witness's exact f is within one margin of its value; the second margin covers these sums
        return bounds < upper + 2.0 * search.margin - resolution

    lower, truncated = search.descend(resolution / n_K, keep)
    eps_torus = float(_f_exact(terms_exact, witness))
    return SeparationReport(
        horizon=K,
        epsilon_hat=chord_from_torus(eps_torus),
        epsilon_hat_torus=eps_torus,
        witness=witness,
        resolution=resolution,
        theta_min=theta_min,
        lower_bound_torus=max(0.0, lower),
        boundary_limited=boundary_limited,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """Decay table plus a heuristic verdict.

    The verdict speaks only about the sampled horizons: separation proper is a
    statement about the infinite sequence and is not decidable here.
    """

    verdict: str
    reports: tuple
    floor: Optional[float]
    decay_slope: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "floor": self.floor,
            "decay_slope": self.decay_slope,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def classify_jamison(
    seq: IndexSequence,
    horizons: Sequence[int],
    resolution: float = 1e-6,
) -> ClassificationResult:
    """Certify the separation floor at several horizons and call a verdict.

    The estimates are the upper ends of the certified intervals.
    SEPARATED: the last three estimates sit above 1e-2 and either agree within
    10% or never decrease (a floor that rises with the horizon is separation
    evidence, not decay).
    VANISHING: the last three strictly decrease and either the final estimate
    is below 1e-2 or the log-log decay slope across all horizons is <= -0.5
    (slow 1/K-style decay is still decay; demanding the absolute threshold
    alone would misread short horizon tables).
    Anything else, fewer than three horizons, or an interval the box budget
    left wider than the resolution (a truncated report), is INCONCLUSIVE.
    """
    horizons = list(horizons)
    if not horizons:
        raise EmptyHorizons("need at least one horizon")
    for prev, cur in zip(horizons, horizons[1:]):
        if not cur > prev:
            raise ConfigInvalid("horizons must be strictly increasing")

    reports = tuple(separation_constant(seq, K, resolution=resolution) for K in horizons)
    estimates = [r.epsilon_hat_torus for r in reports]

    verdict = INCONCLUSIVE
    floor = None
    slope = None
    if len(estimates) >= 3 and not any(r.truncated for r in reports):
        tail = estimates[-3:]
        hi, lo = max(tail), min(tail)
        stable = hi > 0 and (hi - lo) / hi <= 0.10
        rising = all(b >= a * 0.98 for a, b in zip(tail, tail[1:]))
        if lo >= 1e-2 and (stable or rising):
            verdict = SEPARATED
            floor = lo
        else:
            decreasing = all(b < a for a, b in zip(tail, tail[1:]))
            if decreasing and all(e > 0 for e in estimates):
                logk = np.log(np.asarray(horizons, dtype=float))
                loge = np.log(np.asarray(estimates, dtype=float))
                slope = float(np.polyfit(logk, loge, 1)[0])
                if estimates[-1] < 1e-2 or slope <= -0.5:
                    verdict = VANISHING
    return ClassificationResult(verdict=verdict, reports=reports, floor=floor, decay_slope=slope)


# ---------------------------------------------------------------------------
# near-return search
# ---------------------------------------------------------------------------


_PROFILE_RESOLUTION = 1e-5  # width of each sub-horizon's certified interval in the profile


@functools.lru_cache(maxsize=128)
def _separation_profile(seq: IndexSequence, K: int) -> tuple:
    """Certified separation intervals (h, lower, upper) at sub-horizons ~K/4, K/2, K (cached).

    Each interval is 1e-5 wide, which resolves the near return at 1/n_h
    (f_h(1/h!) = 1/h on factorials) at any n_h.
    """
    hs = sorted({max(1, math.ceil(K / 4)), max(1, math.ceil(K / 2)), K})
    reports = (separation_constant(seq, h, resolution=_PROFILE_RESOLUTION) for h in hs)
    return tuple((rep.horizon, rep.lower_bound_torus, rep.epsilon_hat_torus) for rep in reports)


def _profile_decays(profile: tuple) -> bool:
    """The last sub-horizon's upper end is at most 0.9 times the first one's lower end."""
    return len(profile) >= 2 and profile[-1][2] <= 0.9 * profile[0][1]


def near_return_search(
    seq: IndexSequence,
    K: int,
    eta: float,
    max_candidates: int = 8,
    arc: Optional[tuple] = None,
) -> list:
    """Find angles theta with f_K(theta) <= eta (torus units), up to a budget.

    Pass 1 runs the box search of separation_constant over the resolved
    domain [1/(2 n_K), 1/2] intersected with ``arc``.  Every evaluated point
    whose exact f is at most eta is admitted, unless it lies within half its
    box's width of one admitted before; a box is cut again while its bound is
    at most eta and its t_K (hi - lo) exceeds eta/4.  Since t_1 = 1 gives
    f_K(theta) >= theta, boxes above eta are dropped by their bound.  When
    that comes up short, and only when the sequence's own separation profile
    at sub-horizons decays (evidence that small f values are a feature of the
    sequence rather than an artifact of theta being below the horizon's
    resolution), the search admits constructed sub-resolution witnesses
    theta = 1/(m * n_K * 2^j), each re-verified exactly.  The profile decays
    when the certified upper end at the last sub-horizon is at most 0.9 times
    the lower end at the first.  Sequences with a flat profile get no such
    fallback, so a separated family returns an empty list rather than the
    vacuous tiny angles every sequence has below 1/(2 n_K).  This gate is a
    documented heuristic; every returned point satisfies f_K(theta) <= eta
    exactly.  Deep in a construction eta falls below 1/(2 n_K), and the
    offsets come from the witnesses alone.

    Returns at most max_candidates exact angles, sorted by (exact f value,
    theta).  An eta that is not finite and positive, or whose reciprocal
    overflows (a subnormal), raises InvalidEta.
    """
    if not (eta > 0 and math.isfinite(eta) and math.isfinite(1.0 / eta)):
        raise InvalidEta(f"eta must be positive with a finite reciprocal, got {eta!r}")
    terms_exact = seq.prefix(K)
    if max_candidates < 1:
        return []

    arc_lo = Fraction(0)
    arc_hi = Fraction(1, 2)
    if arc is not None:
        arc_lo, arc_hi = Fraction(arc[0]), Fraction(arc[1])
        if not (0 <= arc_lo < arc_hi <= Fraction(1, 2)):
            raise OutOfDomain(f"arc {arc!r} is not a sub-interval of (0, 1/2]")

    eta_t = float(eta)
    eta_exact = Fraction(eta)

    def admit(found: list, theta: Fraction, f_exact: Fraction) -> None:
        if any(theta == t for t, _ in found):
            return
        if not (arc_lo < theta <= arc_hi):
            return
        found.append((theta, f_exact))

    n_K = float(terms_exact[-1])
    floor = 1.0 / (2.0 * n_K) if n_K > 1.0 else 1e-6

    found: list = []

    # Pass 1: boxes of the resolved domain whose bound is at most eta.
    def keep(lo, hi, bounds, values, point):
        for i in np.argsort(values, kind="stable"):
            if values[i] > eta_t or len(found) >= max_candidates:
                break
            theta = point(int(i))
            half = (hi[i % lo.size] - lo[i % lo.size]) / 2.0
            if any(abs(theta - t) <= half for t, _ in found):
                continue  # a point of a box that already yielded one, seen again from a third of it
            f_exact = _f_exact(terms_exact, theta)
            if f_exact <= eta_exact:
                admit(found, theta, f_exact)
        return (bounds <= eta_t) & (len(found) < max_candidates)

    dlo = max(float(arc_lo), floor)
    dhi = min(float(arc_hi), 0.5)
    if dlo < dhi:
        _BoxSearch(terms_exact, dlo, dhi).descend(eta_t / (4.0 * n_K), keep)

    # Pass 2: constructed witnesses below the resolved floor, profile-gated.
    if len(found) < max_candidates:
        profile = _separation_profile(seq, K)
        if _profile_decays(profile):
            m0 = 2 * math.ceil(1.0 / eta_t)
            base = m0 * int(math.ceil(terms_exact[-1]))
            for j in range(max_candidates * 2):
                if len(found) >= max_candidates:
                    break
                theta = Fraction(1, base * (1 << j))
                f_exact = _f_exact(terms_exact, theta)
                if f_exact <= eta_exact:
                    admit(found, theta, f_exact)

    found.sort(key=lambda p: (p[1], p[0]))
    return [t for t, _ in found[:max_candidates]]


# ---------------------------------------------------------------------------
# chord / torus sandwich
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChordTorusReport:
    all_ok: bool
    count: int
    min_lower_ratio: float   # min over samples of chord / (4 ||theta||), >= 1
    max_upper_ratio: float   # max over samples of chord / (2 pi ||theta||), <= 1


def chord_torus_bounds_check(samples: Sequence[float]) -> ChordTorusReport:
    """Check 4||theta|| <= |e^{2 pi i theta} - 1| <= 2 pi ||theta|| on samples.

    The inequalities are exact; the check allows 1e-14 floating slack.
    Samples must lie in (0, 1/2].
    """
    if len(samples) == 0:
        raise DegenerateInput("no samples")
    all_ok = True
    min_lower = math.inf
    max_upper = 0.0
    for theta in samples:
        t = float(theta)
        if not (0.0 < t <= 0.5):
            raise OutOfDomain(f"sample {theta!r} outside (0, 1/2]")
        tn = torus_norm(t)
        chord = chord_from_torus(tn)
        if not (4.0 * tn <= chord + 1e-14 and chord <= turns_to_radians(tn) + 1e-14):
            all_ok = False
        min_lower = min(min_lower, chord / (4.0 * tn))
        max_upper = max(max_upper, chord / turns_to_radians(tn))
    return ChordTorusReport(all_ok=all_ok, count=len(samples), min_lower_ratio=min_lower, max_upper_ratio=max_upper)


# ---------------------------------------------------------------------------
# dimension probe
# ---------------------------------------------------------------------------


def box_dimension_estimate(points: Sequence[Fraction], scales: Sequence[float]) -> float:
    """Least-squares box-counting slope of the angles' points of the circle, clamped to [0, 1]."""
    angles = sorted({p % 1 for p in points})
    if len(angles) < 2:
        raise DegenerateInput("need at least 2 distinct points")
    scales = list(scales)
    if not scales or any(not (0.0 < s < 1.0) for s in scales):
        raise DegenerateInput("scales must lie in (0, 1)")
    for a, b in zip(scales, scales[1:]):
        if not b < a:
            raise DegenerateInput("scales must be strictly decreasing")
    xs = np.asarray([float(a) for a in angles])
    counts = []
    for delta in scales:
        bins = np.unique(np.floor(xs / delta))
        counts.append(len(bins))
    slope = float(np.polyfit(np.log(1.0 / np.asarray(scales)), np.log(np.asarray(counts, dtype=float)), 1)[0])
    return min(1.0, max(0.0, slope))
