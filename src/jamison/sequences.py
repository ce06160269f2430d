"""Torus arithmetic and separation analysis for power sequences.

Angles live in turns (fractions of a full circle) and are carried as exact
`fractions.Fraction` values wherever a downstream computation could hinge on
cancellation: the searches in this module certify fractional parts far below
double-precision resolution.  Floats appear only inside vectorized grid scans,
and every winning point is re-checked in exact arithmetic before it is
reported.

The central quantity is f_K(theta) = max over the first K sequence terms t of
the distance from t*theta to the nearest integer.  A sequence "separates" when
f_K stays bounded away from zero; the searches below estimate that floor and
hunt for points where it is beaten.
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

TWO_PI = 2.0 * math.pi

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
    return TWO_PI * float(theta)


def radians_to_turns(angle: float) -> float:
    """Angle in radians (frequency convention) to turns (torus convention)."""
    return float(angle) / TWO_PI


def chord_from_torus(delta: Angle) -> float:
    """Chord length |e^{2 pi i delta} - 1| = 2 sin(pi * torus_norm(delta))."""
    return 2.0 * math.sin(math.pi * float(torus_norm(delta)))


@dataclass(frozen=True)
class TorusPoint:
    """A point of the unit circle, stored as an exact angle in [0, 1) turns."""

    theta: Fraction

    def __post_init__(self):
        if not isinstance(self.theta, Fraction):
            object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "theta", self.theta % 1)

    @classmethod
    def from_radians(cls, angle: float) -> "TorusPoint":
        return cls(Fraction(radians_to_turns(angle)))

    def as_float(self) -> float:
        return float(self.theta)

    def complex_value(self) -> complex:
        phi = turns_to_radians(self.theta)
        return complex(math.cos(phi), math.sin(phi))

    def scaled(self, n: Angle) -> "TorusPoint":
        """The point at angle n*theta (the n-th power of the circle point)."""
        return TorusPoint(self.theta * Fraction(n))

    def signed_angle_to(self, other: "TorusPoint") -> Fraction:
        """Exact representative of (self - other) in (-1/2, 1/2]."""
        d = (self.theta - other.theta + Fraction(1, 2)) % 1
        return d - Fraction(1, 2)


def chord_distance(a: TorusPoint, b: TorusPoint) -> float:
    """|e^{2 pi i a} - e^{2 pi i b}|, in [0, 2]."""
    return chord_from_torus(a.theta - b.theta)


def unit_diff(a: TorusPoint, b: TorusPoint) -> complex:
    """e^{2 pi i a} - e^{2 pi i b} without subtractive cancellation.

    The difference is written as e^{2 pi i b} * (e^{2 pi i d} - 1) with d the
    exact angle difference, and the bracket expanded in half-angle form, so the
    result keeps full relative accuracy even when d is far below 1e-16 turns.
    """
    phi = turns_to_radians(b.theta)
    return unit_step(float(a.signed_angle_to(b)), complex(math.cos(phi), math.sin(phi)))


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


def d_metric(a: TorusPoint, b: TorusPoint, seq: IndexSequence, K: int) -> float:
    """sup over the first K terms t of |a^t - b^t| (chordal units).

    Symmetric, satisfies the triangle inequality, non-decreasing in K, and
    dominates chord_distance whenever the sequence starts with 1.
    """
    terms = seq.prefix(K)
    delta = a.theta - b.theta
    best = 0.0
    for t in terms:
        best = max(best, chord_from_torus(delta * Fraction(t)))
    return best


# ---------------------------------------------------------------------------
# grid kernels
# ---------------------------------------------------------------------------


_TILE = 1 << 13
_CHUNK = 64
_SCRATCH = 1 << 17  # doubles per scratch buffer of a scan: 1 MB
_PRUNED_HEAD = (0, 4, 12, 28, 60)  # chunks of 4, 8, 16 and 32 terms, then 64
_BLOCK = 64  # grid points per block of separation_constant's Lipschitz bound
_MAX_GRID_POINTS = 1 << 31  # largest grid separation_constant scans
_PROFILE_MAX_TERM = 1 << 30  # largest n_h whose profile step 1/(4 n_h) keeps the grid within 2^31 points


def _chunk_edges(n_terms: int) -> list:
    """Term indices at which the scan's chunks start, with n_terms last."""
    edges = list(_PRUNED_HEAD) + list(range(_PRUNED_HEAD[-1] + _CHUNK, n_terms, _CHUNK))
    return [e for e in edges if e < n_terms] + [n_terms]


class _TileScan:
    """f_K(theta) = max_k torus_norm(t_k * theta) on one tile of thetas at a time.

    Every tile goes through one pair of scratch buffers of at most _SCRATCH
    doubles each, rows x tile for rows = min(64, K) terms at a time, so the
    tile is min(_TILE, _SCRATCH // rows) points: 8192 up to K = 16, 2048
    from K = 64 on.  Scan memory is bounded by the cap, not by the grid
    resolution or K.  Each entry is t*theta, minus its floor, then
    min(p, 1 - p), then an exact max, so neither the chunk schedule nor the
    tile can change a value.

    Terms go 4, 8, 16, 32, then 64 at a time; after each chunk a theta whose
    running maximum has crossed the threshold is dropped from its tile.  Its
    entry is then only a lower bound above the threshold, which is sound for
    callers hunting minima below it; every entry at or below the threshold is
    exact, and an infinite threshold drops nothing.

    ``block_bound`` runs the same float operations on block centres instead
    of points, for the Lipschitz lower bound of ``separation_constant``.
    """

    def __init__(self, terms: np.ndarray, points: int):
        """Scratch for tiles of at most ``points`` thetas (fewer if the cap allows fewer)."""
        self.terms = terms
        rows = min(_CHUNK, terms.size)
        self.tile = min(_TILE, _SCRATCH // rows)
        size = rows * min(self.tile, points)
        self.scratch_p, self.scratch_q = np.empty(size), np.empty(size)

    def _norms(self, lo: int, hi: int, sub: np.ndarray) -> tuple:
        """torus_norm(t * theta) for terms[lo:hi] x sub in the first buffer; the second is free."""
        rows, cols = hi - lo, sub.size
        p = self.scratch_p[:rows * cols].reshape(rows, cols)
        q = self.scratch_q[:rows * cols].reshape(rows, cols)
        np.multiply(self.terms[lo:hi, None], sub, out=p)
        np.floor(p, out=q)
        np.subtract(p, q, out=p)
        np.subtract(1.0, p, out=q)
        np.minimum(p, q, out=p)
        return p, q

    def __call__(self, sub: np.ndarray, prune_above: float) -> np.ndarray:
        edges = _chunk_edges(self.terms.size)
        out = np.empty(sub.shape)
        idx = np.arange(sub.size)  # positions of the live thetas within the tile
        run = np.zeros(sub.size)
        for lo, hi in zip(edges, edges[1:]):
            p, q = self._norms(lo, hi, sub)
            np.max(p, axis=0, out=q[0])
            np.maximum(run, q[0], out=run)
            live = run <= prune_above
            if live.all():
                continue
            dead = ~live
            out[idx[dead]] = run[dead]
            idx, sub, run = idx[live], sub[live], run[live]
            if idx.size == 0:
                break
        out[idx] = run
        return out

    def block_bound(self, centres: np.ndarray, half_width: float) -> np.ndarray:
        """Lower bound on f_K over each block of thetas within half_width of a centre c.

        Since torus_norm is 1-Lipschitz, f_K(theta) >= max over the first <= 64
        terms of (torus_norm(t_k * c) - t_k * half_width).  Less a margin of
        2^-49 * (1 + max t_k) over those terms, which covers the rounding of
        t * theta, of c and of the bound itself, this bounds the float f_K of
        ``__call__`` too.  From 2^48 on the margin exceeds 1/2, so terms past
        2^53, such as 3^40, make the bound vacuous.  The result is a view
        into scratch, valid until the next call; at most ``tile`` centres
        fit.
        """
        m = min(_CHUNK, self.terms.size)
        p, q = self._norms(0, m, centres)
        np.subtract(p, (self.terms[:m] * half_width)[:, None], out=p)
        np.max(p, axis=0, out=q[0])
        return np.subtract(q[0], 2.0 ** -49 * (1.0 + self.terms[:m].max()), out=q[0])


def _f_grid(terms: np.ndarray, thetas: np.ndarray, prune_above: float = math.inf) -> np.ndarray:
    """f_K over an array of thetas, scanned one tile at a time (see _TileScan)."""
    best = np.zeros(thetas.shape, dtype=float)
    scan = _TileScan(terms, thetas.size)
    for start in range(0, thetas.size, scan.tile):
        best[start:start + scan.tile] = scan(thetas[start:start + scan.tile], prune_above)
    return best


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


def _f_float(terms: np.ndarray, theta: float) -> float:
    p = (terms * theta) % 1.0
    return float(np.minimum(p, 1.0 - p).max())


def _ternary_refine(terms: np.ndarray, lo: float, hi: float, steps: int):
    """Shrink [lo, hi] towards a local minimum of f; returns (theta, f)."""
    best_t = lo
    best_f = _f_float(terms, lo)
    for point in (hi, 0.5 * (lo + hi)):
        f = _f_float(terms, point)
        if f < best_f:
            best_t, best_f = point, f
    for _ in range(max(0, steps)):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = _f_float(terms, m1)
        f2 = _f_float(terms, m2)
        if f1 < best_f:
            best_t, best_f = m1, f1
        if f2 < best_f:
            best_t, best_f = m2, f2
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if hi - lo <= 1e-18:
            break
    return best_t, best_f


# ---------------------------------------------------------------------------
# separation constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Estimate of inf f_K over the resolved part of (0, 1/2].

    epsilon_hat_torus is an upper bound on the true infimum over the searched
    domain [theta_min, 1/2] (it is the exact f value at the reported witness).
    lower_bound_torus is the certified grid lower bound for the same domain,
    from the Lipschitz constant n_K.  boundary_limited marks the degenerate
    case where the default domain floor collapses to the grid resolution.
    """

    horizon: int
    epsilon_hat: float
    epsilon_hat_torus: float
    witness: TorusPoint
    grid_resolution: float
    theta_min: float
    lower_bound_torus: float
    boundary_limited: bool
    refine_steps: int

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "epsilon_hat": self.epsilon_hat,
            "epsilon_hat_torus": self.epsilon_hat_torus,
            "witness_theta": str(self.witness.theta),
            "witness_theta_float": self.witness.as_float(),
            "grid_resolution": self.grid_resolution,
            "theta_min": self.theta_min,
            "lower_bound_torus": self.lower_bound_torus,
            "boundary_limited": self.boundary_limited,
            "refine_steps": self.refine_steps,
        }


def separation_constant(
    seq: IndexSequence,
    K: int,
    resolution: float = 1e-6,
    refine_steps: int = 48,
    theta_min: Optional[float] = None,
) -> SeparationReport:
    """Estimate inf of f_K(theta) = max_{k<=K} torus_norm(t_k * theta).

    At any finite horizon the infimum over all of (0, 1/2] is trivially zero
    (f_K(theta) <= t_K * theta near zero), so the search runs over the resolved
    domain [theta_min, 1/2], default theta_min = 1/(2 t_K), where the largest
    multiplier has wrapped at least half a turn.  Pass theta_min explicitly to
    pin the domain (for example when comparing horizons on a common grid).

    Uniform grid of the stated resolution, then ternary refinement around the
    grid minimum.  The returned estimate is the exact f value at the witness,
    hence an upper bound on the domain infimum; lower_bound_torus certifies
    grid_min - n_K * resolution / 2 from the Lipschitz constant.

    The grid is cut into blocks of 64 consecutive points, centre c and
    half-width w.  Every theta in a block has f_K(theta) >= max over the first
    <= 64 terms of (torus_norm(t_k c) - t_k w), and a block whose bound, less
    a margin of 2^-49 (1 + max t_k) over those terms, exceeds the running
    minimum is never scanned point by point (_TileScan.block_bound).  The
    margin covers rounding; for terms past 2^53 it exceeds 1/2 and nothing is
    dropped.  The surviving points go through the same float operations, threshold and
    first-index tie rule as an unblocked scan, so the report is the same to
    the bit.  Blocks are bounded, and their survivors scanned, one scan tile
    at a time (see _TileScan) in index order against the running minimum,
    so the tile size cannot change the grid minimum or its index either.

    A grid of more than 2^31 points, or a step below the double spacing at
    1/2 (where thetas would repeat), raises InvalidResolution.
    """
    if not (isinstance(K, int) and K >= 1):
        raise HorizonExceedsSequence(f"horizon must be a positive integer, got {K!r}")
    terms_exact = seq.prefix(K)
    if not (0.0 < resolution < 0.5):
        raise InvalidResolution(f"resolution {resolution!r} outside (0, 1/2)")
    if resolution < math.ulp(0.5):
        raise InvalidResolution(f"resolution {resolution!r} is below the double spacing at 1/2")
    if refine_steps < 0:
        raise ConfigInvalid("refine_steps must be >= 0")

    terms = np.asarray(terms_exact, dtype=float)
    n_K = float(terms[-1])

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

    n_points = int(math.floor((0.5 - theta_min) / resolution)) + 1
    if n_points > _MAX_GRID_POINTS:
        raise InvalidResolution(
            f"resolution {resolution!r} needs {n_points} grid points, more than {_MAX_GRID_POINTS}"
        )

    # Pilot pass seeds the pruning threshold cheaply.
    pilot = np.linspace(theta_min, 0.5, 4097)
    f_pilot = _f_grid(terms, pilot)
    i = int(np.argmin(f_pilot))
    best_val = float(f_pilot[i])
    best_theta = float(pilot[i])

    # Blocks of _BLOCK points go one tile of blocks at a time through the
    # scan's bound; only the points of blocks it cannot rule out are
    # generated and scanned, one tile at a time, so the scan holds no
    # grid-sized array.  The threshold follows the running minimum.
    scan = _TileScan(terms, n_points)
    tile, per_tile = scan.tile, scan.tile // _BLOCK
    half = 0.5 * (_BLOCK - 1)
    n_blocks = -(-n_points // _BLOCK)
    offsets = np.arange(_BLOCK)
    for first in range(0, n_blocks, tile):
        blocks = np.arange(first, min(first + tile, n_blocks), dtype=float)
        bound = scan.block_bound(theta_min + resolution * (blocks * _BLOCK + half), half * resolution)
        live = first + np.flatnonzero(bound <= best_val)
        for start in range(0, live.size, per_tile):
            idx = (live[start:start + per_tile, None] * _BLOCK + offsets).ravel()
            thetas = theta_min + resolution * idx[idx < n_points].astype(float)
            thetas = thetas[thetas <= 0.5]
            if thetas.size == 0:
                continue
            f = scan(thetas, best_val)
            j = int(np.argmin(f))
            if f[j] < best_val:
                best_val = float(f[j])
                best_theta = float(thetas[j])
    grid_min = best_val

    if refine_steps:
        lo = max(theta_min, best_theta - resolution)
        hi = min(0.5, best_theta + resolution)
        t_ref, f_ref = _ternary_refine(terms, lo, hi, refine_steps)
        if f_ref < best_val:
            best_val, best_theta = f_ref, t_ref

    witness = TorusPoint(Fraction(best_theta))
    eps_torus = float(_f_exact(terms_exact, witness.theta))
    lower = max(0.0, grid_min - n_K * resolution / 2.0)

    return SeparationReport(
        horizon=K,
        epsilon_hat=2.0 * math.sin(math.pi * eps_torus),
        epsilon_hat_torus=eps_torus,
        witness=witness,
        grid_resolution=resolution,
        theta_min=theta_min,
        lower_bound_torus=lower,
        boundary_limited=boundary_limited,
        refine_steps=refine_steps,
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
    refine_steps: int = 48,
) -> ClassificationResult:
    """Estimate the separation floor at several horizons and call a verdict.

    SEPARATED: the last three estimates sit above 1e-2 and either agree within
    10% or never decrease (a floor that rises as the grid loses the deepest
    valleys is separation evidence, not decay).
    VANISHING: the last three strictly decrease and either the final estimate
    is below 1e-2 or the log-log decay slope across all horizons is <= -0.5
    (slow 1/K-style decay is still decay; demanding the absolute threshold
    alone would misread short horizon tables).
    Anything else, or fewer than three horizons, is INCONCLUSIVE.
    """
    horizons = list(horizons)
    if not horizons:
        raise EmptyHorizons("need at least one horizon")
    for prev, cur in zip(horizons, horizons[1:]):
        if not cur > prev:
            raise ConfigInvalid("horizons must be strictly increasing")

    reports = tuple(
        separation_constant(seq, K, resolution=resolution, refine_steps=refine_steps)
        for K in horizons
    )
    estimates = [r.epsilon_hat_torus for r in reports]

    verdict = INCONCLUSIVE
    floor = None
    slope = None
    if len(estimates) >= 3:
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


@functools.lru_cache(maxsize=128)
def _separation_profile(terms_exact: tuple, K: int) -> tuple:
    """Separation estimates at sub-horizons ~K/4, K/2, K (cached).

    Sub-horizon h is scanned at step min(1e-5, 1/(4 n_h)), fine enough to see
    the near return at 1/n_h (f_h(1/h!) = 1/h on factorials).  A sub-horizon
    with n_h > 2^30 is left out: its step would put more than 2^31 points on
    the grid, or, clamped, leave a grid it cannot resolve (on 2^k every point
    of a 2^-32 grid past K = 32 is dyadic and reads exactly 1/2).
    """
    kind = "real" if any(isinstance(t, float) for t in terms_exact) else "integer"
    seq = IndexSequence(terms_exact, kind=kind)
    hs = sorted({max(1, math.ceil(K / 4)), max(1, math.ceil(K / 2)), K})
    ests = []
    for h in hs:
        n_h = float(terms_exact[h - 1])
        if n_h > _PROFILE_MAX_TERM:
            break
        rep = separation_constant(seq, h, resolution=min(1e-5, 0.25 / n_h), refine_steps=24)
        ests.append(rep.epsilon_hat_torus)
    return tuple(zip(hs, ests))


def _profile_decays(profile: tuple) -> bool:
    ests = [e for _, e in profile]
    if len(ests) < 2:
        return False
    non_increasing = all(b <= a * 1.02 for a, b in zip(ests, ests[1:]))
    return non_increasing and ests[-1] <= 0.9 * ests[0]


def near_return_search(
    seq: IndexSequence,
    K: int,
    eta: float,
    max_candidates: int = 8,
    arc: Optional[tuple] = None,
) -> list:
    """Find angles theta with f_K(theta) <= eta (torus units), up to a budget.

    Runs a multi-resolution grid descent, one octave band at a time, over
    the resolved domain [1/(2 n_K), 1/2] intersected with ``arc``; since
    t_1 = 1 gives f_K(theta) >= theta, it stops before the first band above
    1.25 eta, where no grid hit can lie.  When that comes up short, and only
    when the sequence's own separation profile at sub-horizons decays
    (evidence that small f values are a feature of the sequence rather than an
    artifact of theta being below the horizon's resolution), the search admits
    constructed sub-resolution witnesses theta = 1/(m * n_K * 2^j), each
    re-verified exactly.  Sequences with a flat profile get no such fallback,
    so a separated family returns an empty list rather than the vacuous tiny
    angles every sequence has below 1/(2 n_K).  This gate is a documented
    heuristic; every returned point satisfies f_K(theta) <= eta exactly.
    Deep in a construction 1.25 eta falls below 1/(2 n_K), and the offsets
    come from the witnesses alone.

    Returns at most max_candidates TorusPoints, sorted by (exact f value,
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

    terms = np.asarray(terms_exact, dtype=float)
    n_K = float(terms[-1])
    floor = 1.0 / (2.0 * n_K) if n_K > 1.0 else 1e-6

    found: list = []

    # Pass 1: multi-resolution descent over the resolved domain.
    dlo = max(float(arc_lo), floor)
    dhi = min(float(arc_hi), 0.5)
    if dlo < dhi:
        band_lo = dlo
        while band_lo < dhi and band_lo <= eta_t * 1.25 and len(found) < max_candidates:
            band_hi = min(band_lo * 2.0, dhi)
            grid = np.linspace(band_lo, band_hi, 4097)
            spacing = (band_hi - band_lo) / 4096.0
            f = _f_grid(terms, grid, prune_above=eta_t * 1.5)
            hits = np.flatnonzero(f <= eta_t * 1.25)
            order = hits[np.argsort(f[hits], kind="stable")]
            for idx in order:
                if len(found) >= max_candidates:
                    break
                t0 = float(grid[idx])
                if any(abs(t0 - float(t)) < 2.0 * spacing for t, _ in found):
                    continue
                t_ref, _ = _ternary_refine(terms, max(dlo, t0 - spacing), min(dhi, t0 + spacing), 60)
                if any(abs(t_ref - float(t)) < spacing for t, _ in found):
                    continue
                theta = Fraction(t_ref)
                f_exact = _f_exact(terms_exact, theta)
                if f_exact <= eta_exact:
                    admit(found, theta, f_exact)
            band_lo = band_hi

    # Pass 2: constructed witnesses below the resolved floor, profile-gated.
    if len(found) < max_candidates:
        profile = _separation_profile(terms_exact, K)
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
    return [TorusPoint(t) for t, _ in found[:max_candidates]]


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
        chord = 2.0 * math.sin(math.pi * tn)
        if not (4.0 * tn <= chord + 1e-14 and chord <= TWO_PI * tn + 1e-14):
            all_ok = False
        min_lower = min(min_lower, chord / (4.0 * tn))
        max_upper = max(max_upper, chord / (TWO_PI * tn))
    return ChordTorusReport(all_ok=all_ok, count=len(samples), min_lower_ratio=min_lower, max_upper_ratio=max_upper)


# ---------------------------------------------------------------------------
# dimension probe
# ---------------------------------------------------------------------------


def box_dimension_estimate(points: Sequence[TorusPoint], scales: Sequence[float]) -> float:
    """Least-squares box-counting slope of the point set, clamped to [0, 1]."""
    angles = sorted({p.theta for p in points})
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
