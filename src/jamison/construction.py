"""Finite truncations of a diagonal-plus-backward-shift operator.

The operator acts on coordinates indexed by (fiber i, level l).  Its diagonal
part carries unimodular entries e^(2 pi i theta_l), one angle per level, and
its shift part couples level l to level l-1 within each fiber with a small
weight alpha_{i,l-1}.  The angles are not free: each new level must sit so
close to an earlier one (its "parent" under a triangular-block index map)
that three quantitative budgets hold simultaneously.  When a sequence of
powers is too well separated on the circle, no placement works and the build
reports which budget failed first; when the sequence has fast-vanishing
separation (factorial-like growth), the adaptive search succeeds and the
resulting matrix keeps all powers T^{n_k} within distance 1 of the diagonal
part.

Everything here is deterministic: the near-return search is grid plus exact
rational witnesses, budgets are re-checked with exact-angle arithmetic after
every selection, and builds with identical inputs produce identical output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BudgetInfeasible,
    BudgetsNotCertified,
    ConfigInvalid,
    HorizonExceedsSequence,
    IndexOutOfRange,
    InvalidIndex,
    NegativeDegree,
    NonSquare,
    PreconditionViolated,
    SizeMismatch,
    WeightListTooShort,
)
from .funm import NodeSet, Power, apply, band_products
from .sequences import IndexSequence, TorusPoint, chord_distance, near_return_search, unit_diff


# --- fiber (parent) index map -------------------------------------------------


@lru_cache(maxsize=None)
def fiber_map(n: int) -> int:
    """Parent level of coordinate n under the triangular-block enumeration.

    Levels n = 2, 3, 4, ... are grouped into consecutive blocks of lengths
    1, 2, 3, ...; within the block covering n the value is the 1-based offset.
    Block b starts at n = 2 + b(b-1)/2, so the table begins

        n : 2  3  4  5  6  7  8  9  10 11 12 ...
        j : 1  1  2  1  2  3  1  2  3  4  1 ...

    Every value m >= 1 recurs once in each later block of length >= m, and
    j(n) < n always, which is what the level-placement recursion needs.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidIndex(f"level index must be an int, got {n!r}")
    if n < 2:
        raise InvalidIndex(f"fiber map is defined for n >= 2, got {n}")
    t = n - 2
    b = (math.isqrt(8 * t + 1) - 1) // 2  # 0-based block index via triangular root
    return t - b * (b + 1) // 2 + 1


# --- weight bookkeeping ---------------------------------------------------------


FIBER_DECAY = 0.5  # weight ratio between consecutive fibers


def level_weights(w, levels: int) -> tuple:
    """w_1..w_{levels-1} as floats, from a list of at least that many, all positive and finite.

    w_l sets the band between levels l and l+1; fiber i carries w_l * FIBER_DECAY**i.
    """
    w = tuple(float(x) for x in w)
    if not w:
        raise ConfigInvalid("weight list is empty")
    if any(not math.isfinite(x) or x <= 0.0 for x in w):
        raise ConfigInvalid("all level weights must be positive and finite")
    if len(w) < levels - 1:
        raise WeightListTooShort(f"{len(w)} weights for {levels} levels; need {levels - 1}")
    return w[: levels - 1]


# --- budget certificates ---------------------------------------------------------


@dataclass(frozen=True)
class LevelBudget:
    """Measured values and pass flags for the three placement predicates.

    gap_ratio: g_l <= g_{l-1} / (2^l w_{l-1})            (levels >= 3)
    eigvec:    both chain-difference parts <= 2^-(l+1)    (levels >= 3)
    tail_sum:  max over sequence powers of the weighted
               coefficient tail <= 2^(1-l)                (levels >= 2)

    Level 2 has no gap or eigenvector predicate; those flags are vacuously
    true there and the measured fields are zero.  eigvec_a, eigvec_b and
    tail_max are measured by ``ShiftConstruction.budget``; ``judge`` derives
    every other field.
    """

    level: int
    gap_ratio_ok: bool
    eigvec_budget_ok: bool
    tail_sum_ok: bool
    gap_value: float
    gap_bound: float
    eigvec_a: float
    eigvec_b: float
    eigvec_budget: float
    tail_max: float
    tail_budget: float
    delta: Fraction

    @property
    def all_ok(self) -> bool:
        return self.gap_ratio_ok and self.eigvec_budget_ok and self.tail_sum_ok

    def failing_predicate(self) -> str | None:
        if not self.gap_ratio_ok:
            return "gap_ratio"
        if not self.eigvec_budget_ok:
            return "eigvec_budget"
        if not self.tail_sum_ok:
            return "tail_sum"
        return None

    @classmethod
    def judge(
        cls, level: int, thetas, gaps: dict, w: tuple, eigvec_a: float, eigvec_b: float, tail_max: float
    ) -> "LevelBudget":
        """One level's record: bounds, flags and delta judged from its measured values.

        gaps is the gaps_table of the angles through at least this level;
        delta is the parent angle minus the level angle, exactly.
        """
        if level >= 3:
            gap_bound = gaps[level - 1] / (2 ** level * w[level - 2])
            eigvec_budget = 2.0 ** -(level + 1)
        else:
            gap_bound = eigvec_budget = math.inf
        tail_budget = 2.0 ** (1 - level)
        return cls(
            level=level,
            gap_ratio_ok=gaps[level] <= gap_bound,
            eigvec_budget_ok=eigvec_a <= eigvec_budget and eigvec_b <= eigvec_budget,
            tail_sum_ok=tail_max <= tail_budget,
            gap_value=gaps[level],
            gap_bound=gap_bound,
            eigvec_a=eigvec_a,
            eigvec_b=eigvec_b,
            eigvec_budget=eigvec_budget,
            tail_max=tail_max,
            tail_budget=tail_budget,
            delta=thetas[fiber_map(level) - 1].theta - thetas[level - 1].theta,
        )


# --- symmetric sums and coefficient rows -----------------------------------------


def _unit_band_powers(points, exponents) -> list:
    """J^n for each n, J = diag(e^(2 pi i theta)) + unit superdiagonal on exact angles.

    Entry (k, l) of J^n is the complete homogeneous sum
    h_{n-(l-k)}(lambda_k..lambda_l) (Opitz's divided-difference matrix).  J
    is upper triangular, so every principal block of J^n is the n-th power of
    the same block of J: one power serves every level and every coefficient
    row.  The powers come from the exact-phase kernel, one node set shared by
    all exponents.
    """
    J = np.diag([p.complex_value() for p in points]) + np.eye(len(points), k=1)
    nodes = NodeSet(tuple(p.theta for p in points))
    return [apply(J[None], nodes, Power(n))[0] for n in exponents]


def symmetric_sum(lambdas, m: int) -> complex:
    """Complete homogeneous symmetric sum h_m over the given variables.

    h_m(x_1..x_r) is the corner entry (1, r) of J^(m+r-1), with J the
    bidiagonal matrix carrying the variables on its diagonal; binary
    exponentiation keeps factorial-scale degrees at O(r^3 log m).
    """
    if m < 0:
        raise NegativeDegree(f"degree {m} must be >= 0")
    xs = [complex(x) for x in lambdas]
    if not xs:
        raise PreconditionViolated("symmetric_sum needs at least one variable")
    r = len(xs)
    J = np.diag(xs) + np.eye(r, k=1)
    return complex(matrix_power(J, m + r - 1)[0, r - 1])


def _suffix_weight_products(w: tuple, level: int) -> dict:
    """W(k) = w_k * w_{k+1} * ... * w_{level-1} for k = 1..level-1."""
    out = {}
    acc = 1.0
    for k in range(level - 1, 0, -1):
        acc *= w[k - 1]
        out[k] = acc
    return out


def _tail_sum(Jn: np.ndarray, w: tuple, gaps: dict, level: int) -> float:
    """Weighted coefficient tail for one power n at one level, fiber-summed bound.

    Jn is J^n over at least the first ``level`` eigenvalues.  Its column
    ``level`` holds the coefficient row |h_{n-(level-k)}(lambda_k..lambda_level)|
    for k = 1..level-1, with zeros where level - k > n.
    """
    row = np.abs(Jn[: level - 1, level - 1]).tolist()
    wprod = _suffix_weight_products(w, level)
    g_level = gaps[level]
    total = 0.0
    for k in range(level - 1, 0, -1):
        gk = 1.0 if k == 1 else gaps[k]
        total += wprod[k] * (g_level / gk) * row[k - 1]
    return total


# --- stable product differences and eigenvector chains ----------------------------


def product_difference(x: TorusPoint, y: TorusPoint, nodes) -> complex:
    """prod(x - a_q) - prod(y - a_q), evaluated without catastrophic cancellation.

    Uses the telescoping identity
        prod(x-a) - prod(y-a) = (x-y) * sum_r prod_{q<r}(x-a_q) prod_{q>r}(y-a_q)
    where every factor, including x - y itself, comes from exact angle
    differences, so the result keeps full relative accuracy even when x and y
    are within 1e-80 of each other on the circle.
    """
    nodes = list(nodes)
    r = len(nodes)
    if r == 0:
        return 0j
    fx = [unit_diff(x, a) for a in nodes]
    fy = [unit_diff(y, a) for a in nodes]
    prefix = [1 + 0j] * (r + 1)
    for q in range(r):
        prefix[q + 1] = prefix[q] * fx[q]
    suffix = [1 + 0j] * (r + 1)
    for q in range(r - 1, -1, -1):
        suffix[q] = suffix[q + 1] * fy[q]
    total = 0j
    for q in range(r):
        total += prefix[q] * suffix[q + 1]
    return unit_diff(x, y) * total


def _alphas_fiber1(gaps: dict, w: tuple, upto: int) -> list:
    """Fiber-1 shift weights alpha_{1,l} for l = 1..upto."""
    out = []
    for l in range(1, upto + 1):
        fw = w[l - 1] * FIBER_DECAY
        if l == 1:
            out.append(fw * gaps[2])
        else:
            out.append(fw * gaps[l + 1] / gaps[l])
    return out


def _chain_coeffs(thetas, alphas1, n: int) -> list:
    """Fiber-1 eigenvector coefficients c_1..c_n for the level-n eigenvalue."""
    coeffs = [1 + 0j]
    lam_n = thetas[n - 1]
    for m in range(1, n):
        coeffs.append(coeffs[-1] * unit_diff(lam_n, thetas[m - 1]) / alphas1[m - 1])
    return coeffs


def _norm2(values) -> float:
    """2-norm of a list of moduli, squared after scaling by a power of two taken from the largest.

    Squares below about 1.5e-154 are not doubles; scaled to the largest
    modulus, no square that matters to the sum underflows (Blue, ACM TOMS
    4, 1978).  Scaling by 2^-e is exact, so wherever the plain sum of
    squares did not underflow the norm keeps its bits.
    """
    top = max(values, default=0.0)
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    return math.ldexp(math.sqrt(sum(math.ldexp(v, -e) ** 2 for v in values)), e)


def _chain_difference(thetas, alphas1, n: int) -> tuple:
    """(head, tail) 2-norm parts of the fiber-1 chain difference u^(n) - u^(j(n))."""
    j = fiber_map(n)
    lam_n, lam_j = thetas[n - 1], thetas[j - 1]
    head = [
        abs(product_difference(lam_n, lam_j, thetas[: m - 1]) / math.prod(alphas1[: m - 1], start=1 + 0j))
        for m in range(2, j + 1)
    ]
    tail = [abs(c) for c in _chain_coeffs(thetas, alphas1, n)[j:]]
    return _norm2(head), _norm2(tail)


# --- the construction record ----------------------------------------------------------


def gaps_table(thetas, upto: int) -> dict:
    """Chord distance g_l from level l to its parent level, for l = 2..upto."""
    return {
        l: chord_distance(thetas[l - 1], thetas[fiber_map(l) - 1])
        for l in range(2, upto + 1)
    }


@dataclass(frozen=True)
class ShiftConstruction:
    """One truncated operator, held as what was chosen: exact level angles, weights w_1..w_{L-1}, horizon.

    Angles may be given as TorusPoints or as rationals (turns).  Every other
    table is derived from the choices once, on first use: gaps[l-2] is the
    chord distance from level l to its parent level, for l = 2..L;
    alphas1[l-1] is the fiber-1 shift weight for l = 1..L-1 (fiber i: times
    FIBER_DECAY**(i-1)); powers[k-1] is J^(n_k) over all L levels for
    k = 1..horizon, whose column l holds level l's coefficient row;
    budgets[l-2] is level l's LevelBudget, measured from those tables and
    judged.  No search happens here, so a spectrum that fails a predicate
    simply comes out uncertified.  The file format belongs to
    ``jamison.serialize``.
    """

    seq: IndexSequence
    lambdas: tuple
    weights: tuple
    horizon: int

    def __post_init__(self):
        points = tuple(p if isinstance(p, TorusPoint) else TorusPoint(Fraction(p)) for p in self.lambdas)
        object.__setattr__(self, "lambdas", points)
        if self.levels < 2:
            raise ConfigInvalid(f"a construction needs at least two levels, got {self.levels}")
        object.__setattr__(self, "weights", level_weights(self.weights, self.levels))
        if not 1 <= self.horizon <= len(self.seq):
            raise HorizonExceedsSequence(f"horizon {self.horizon} outside 1..{len(self.seq)}")
        if len(set(p.theta for p in self.lambdas)) != len(self.lambdas):
            raise PreconditionViolated("eigenvalue angles must be pairwise distinct")
        if any(g <= 0.0 for g in self.gaps):
            raise PreconditionViolated("all parent gaps must be positive")

    @property
    def levels(self) -> int:
        return len(self.lambdas)

    @property
    def certified(self) -> bool:
        return all(b.all_ok for b in self.budgets)

    @cached_property
    def _gap_of(self) -> dict:
        return gaps_table(self.lambdas, self.levels)

    @cached_property
    def gaps(self) -> tuple:
        return tuple(self._gap_of.values())

    @cached_property
    def alphas1(self) -> tuple:
        return tuple(_alphas_fiber1(self._gap_of, self.weights, self.levels - 1))

    @cached_property
    def powers(self) -> list:
        return _unit_band_powers(self.lambdas, self.seq.prefix(self.horizon))

    def budget(self, level: int) -> LevelBudget:
        """Measure level l's eigenvector-chain difference and coefficient tail, then judge them."""
        if not 2 <= level <= self.levels:
            raise IndexOutOfRange(f"budget level {level} outside 2..{self.levels}")
        if level >= 3:
            eig_a, eig_b = _chain_difference(self.lambdas, self.alphas1, level)
        else:
            eig_a = eig_b = 0.0
        tail_max = max(_tail_sum(Jn, self.weights, self._gap_of, level) for Jn in self.powers)
        return LevelBudget.judge(level, self.lambdas, self._gap_of, self.weights, eig_a, eig_b, tail_max)

    @cached_property
    def budgets(self) -> tuple:
        return tuple(self.budget(level) for level in range(2, self.levels + 1))

    def alpha(self, i: int, level: int) -> float:
        if i < 1:
            raise IndexOutOfRange(f"fiber index {i} must be >= 1")
        if level < 1 or level > self.levels - 1:
            raise IndexOutOfRange(f"shift weight index {level} outside 1..{self.levels - 1}")
        return self.alphas1[level - 1] * FIBER_DECAY ** (i - 1)

    def nuclear_terms(self) -> list:
        """(level, w_l g_{l+1} / g_l) pairs of the nuclear-series partial sum, with g_1 = 1."""
        return [(l, a / FIBER_DECAY) for l, a in enumerate(self.alphas1, start=1)]

    @property
    def nuclear_partial_sum(self) -> float:
        return sum(t for _, t in self.nuclear_terms())


# --- adaptive build ---------------------------------------------------------------------


SEARCH_ROUNDS = 6  # near-return searches per level; the target shrinks sixteen-fold after each


def _chord_to_eta(chord_bound: float) -> float:
    """Torus-norm search target guaranteeing a chord bound, with quarter margin.

    Since the index sequence starts at 1, any offset delta accepted at target
    eta satisfies |delta| <= eta on the torus, hence its chord is at most
    2 sin(pi eta).  Inverting and keeping a quarter of the slack absorbs grid
    granularity.
    """
    x = min(1.0, max(chord_bound, 0.0) / 2.0)
    return math.asin(x) / math.pi / 4.0


def _level_search_target(seq, thetas, w, K, level) -> float:
    """Back-solved eta target making all level predicates attainable."""
    terms = seq.prefix(K)
    if level == 2:
        return _chord_to_eta(min(2.0, 1.0 / (2.0 * w[0])))
    gaps = gaps_table(thetas, level - 1)
    j = fiber_map(level)
    lam_j = thetas[j - 1]
    dist = [abs(unit_diff(lam_j, p)) for p in thetas[: level - 1]]  # |lambda_j - lambda_q|
    # (a) gap recursion
    g_a = gaps[level - 1] / (2 ** level * w[level - 2])
    # (b) eigenvector budgets, linearized in the new gap with a 2x safety factor
    alphas1 = _alphas_fiber1(gaps, w, level - 2)
    budget = 2.0 ** -(level + 1)
    a_slope_sq = 0.0
    for m in range(2, j + 1):
        denom = abs(math.prod(alphas1[: m - 1], start=1 + 0j))
        s = 0.0
        for r in range(m - 1):
            s += math.prod(dist[q] for q in range(m - 1) if q != r)
        a_slope_sq += (s / denom) ** 2
    b_limit = math.prod(dist[q] for q in range(level - 1) if q != j - 1)
    for q in range(1, level):
        b_limit /= w[q - 1] * FIBER_DECAY
    if b_limit > budget:
        raise BudgetInfeasible(
            level,
            "eigvec_budget",
            f"offset-independent chain coefficient {b_limit:.3e} exceeds budget {budget:.3e}",
        )
    b_slope_sq = 0.0
    for m in range(j + 1, level):
        denom = abs(math.prod(alphas1[: m - 1], start=1 + 0j))
        part = math.prod(dist[q] for q in range(m - 1) if q != j - 1)
        b_slope_sq += (part / denom) ** 2
    g_b = math.inf
    if a_slope_sq > 0.0:
        g_b = min(g_b, budget / (2.0 * math.sqrt(a_slope_sq)))
    headroom = budget ** 2 - b_limit ** 2
    if b_slope_sq > 0.0:
        g_b = min(g_b, math.sqrt(max(headroom, 0.0)) / (2.0 * math.sqrt(b_slope_sq)))
    # (c) weighted tail with the binomial estimate for the coefficient sums
    wprod = _suffix_weight_products(w, level)
    worst = 0.0
    for n in terms:
        kmin = max(1, level - n)
        tot = 0.0
        for k in range(kmin, level):
            gk = 1.0 if k == 1 else gaps[k]
            tot += wprod[k] * math.comb(n, level - k) / gk
        worst = max(worst, tot)
    g_c = (2.0 ** (1 - level)) / worst if worst > 0.0 else math.inf
    return _chord_to_eta(min(g_a, g_b, g_c))


def build_construction(seq: IndexSequence, L: int, K: int, w) -> ShiftConstruction:
    """Adaptively place L eigenvalue angles for the given sequence horizon.

    The first angle is fixed with chord distance exactly 1/3 from the point 1
    (so the whole spectrum stays in the right half-plane and the construction
    lifts to a one-parameter matrix family later).  Every further level l
    searches for a near-return offset delta of the power sequence, places its
    angle at parent minus delta, and accepts the first candidate that passes
    all three budget predicates re-checked exactly.  Failing levels shrink the
    search target sixteen-fold per round, up to six rounds (SEARCH_ROUNDS),
    before giving up with the level and predicate that blocked.  A target
    below the normal double range (on factorials it underflows to 0 at
    level 14) stops the build with predicate float_range.
    """
    if seq.kind != "integer":
        raise PreconditionViolated("construction requires an integer sequence; reduce real input first")
    if K < 1 or K > len(seq):
        raise HorizonExceedsSequence(f"horizon {K} outside 1..{len(seq)}")
    if L < 2:
        raise ConfigInvalid(f"a construction needs at least two levels, got {L}")
    w = level_weights(w, L)

    theta1 = TorusPoint(Fraction(math.asin(1.0 / 6.0) / math.pi))
    thetas = (theta1,)
    for level in range(2, L + 1):
        j = fiber_map(level)
        parent = thetas[j - 1]
        eta = _level_search_target(seq, thetas, w, K, level)
        accepted = None
        last_failure = None
        for _ in range(SEARCH_ROUNDS):
            if not eta >= sys.float_info.min:
                raise BudgetInfeasible(
                    level, "float_range", f"search target eta = {eta!r} is below the normal double range"
                )
            candidates = near_return_search(
                seq, K, eta, max_candidates=4, arc=(Fraction(0), parent.theta)
            )
            for point in candidates:
                new_theta = parent.theta - point.theta
                if not 0 < new_theta < theta1.theta:
                    continue
                if any(new_theta == p.theta for p in thetas):
                    continue
                trial = ShiftConstruction(seq, (*thetas, TorusPoint(new_theta)), w, K)
                record = trial.budget(level)
                if record.all_ok:
                    accepted = trial
                    break
                last_failure = record
            if accepted is not None:
                break
            eta /= 16.0
        if accepted is None:
            if last_failure is not None:
                raise BudgetInfeasible(
                    level,
                    last_failure.failing_predicate() or "tail_sum",
                    f"no candidate passed within {SEARCH_ROUNDS} search rounds",
                )
            raise BudgetInfeasible(
                level, "eta_search", "near-return search found no usable candidates"
            )
        thetas = accepted.lambdas

    return accepted


# --- matrix assembly and powers ------------------------------------------------------


@dataclass(frozen=True)
class TruncatedOperator:
    """One finite section, held as its fiber blocks.

    The operator is the direct sum of its fibers, so it is stored as one
    (fibers, levels, levels) stack: blocks[i-1] is the upper-bidiagonal block
    of fiber i, the unimodular diagonal plus the band alpha_{i,l} linking
    level l+1 to level l.  A stack cannot couple distinct fibers.  thetas
    holds the exact level angles (turns) that every block's diagonal rounds;
    an operator built from bare floats leaves it None, and its blocks must
    then share one diagonal.
    """

    blocks: np.ndarray
    thetas: tuple | None = None

    @property
    def fibers(self) -> int:
        return self.blocks.shape[0]

    @property
    def levels(self) -> int:
        return self.blocks.shape[1]

    def diagonal_part(self) -> np.ndarray:
        out = np.zeros_like(self.blocks)
        idx = np.arange(self.levels)
        out[:, idx, idx] = self.blocks[:, idx, idx]
        return out

    def shift_part(self) -> np.ndarray:
        return self.blocks - self.diagonal_part()

    def exact_angles(self) -> tuple:
        """Exact angle (turns) of every level, shared by all fiber blocks.

        Without stored thetas each angle is the exact Fraction of the double
        phase of its diagonal entry.
        """
        if self.thetas is not None:
            return tuple(self.thetas)
        diag = np.diagonal(self.blocks, axis1=1, axis2=2)
        if np.any(diag != diag[0]):
            raise PreconditionViolated("fiber blocks built from floats must share one diagonal")
        return tuple(TorusPoint.from_radians(float(np.angle(z))).theta for z in diag[0])


def assemble_operator(cons: ShiftConstruction, L: int, I: int) -> TruncatedOperator:
    """The L-level, I-fiber section as its stack of I fiber blocks."""
    if L < 1 or L > cons.levels:
        raise SizeMismatch(f"requested {L} levels, construction has {cons.levels}")
    if I < 1:
        raise SizeMismatch(f"fiber count {I} must be >= 1")
    lams = np.array([p.complex_value() for p in cons.lambdas[:L]])
    if np.any(np.abs(np.abs(lams) - 1.0) > 1e-14):
        raise PreconditionViolated("diagonal entry drifted off the unit circle")
    blocks = np.array([
        np.diag(lams) + np.diag([cons.alpha(i, l) for l in range(1, L)], k=1)
        for i in range(1, I + 1)
    ])
    blocks.flags.writeable = False
    return TruncatedOperator(blocks, tuple(p.theta for p in cons.lambdas[:L]))


def matrix_power(M: np.ndarray, n: int) -> np.ndarray:
    """Integer matrix power by binary exponentiation (n >= 0), blockwise on stacks."""
    if n < 0:
        raise ConfigInvalid("matrix powers here are for n >= 0")
    return np.linalg.matrix_power(np.asarray(M, dtype=complex), n)


def power_coefficient(cons: ShiftConstruction, k: int, l: int, i: int, n: int) -> complex:
    """Entry of T^n linking slot (i, k) to slot (i, l), in closed form.

    Zero when k > l or when the band offset l - k exceeds n; otherwise the
    product of band weights times a complete homogeneous sum of the spanned
    eigenvalues, which on the diagonal is the exact-angle power of the level
    eigenvalue.
    """
    L = cons.levels
    if not (1 <= k <= L and 1 <= l <= L):
        raise IndexOutOfRange(f"indices ({k}, {l}) outside 1..{L}")
    if i < 1:
        raise IndexOutOfRange(f"fiber index {i} must be >= 1")
    if n < 0:
        raise IndexOutOfRange(f"power {n} must be >= 0")
    if k > l or l - k > n:
        return 0j
    alpha_prod = 1.0
    for q in range(k, l):
        alpha_prod *= cons.alpha(i, q)
    (Jn,) = _unit_band_powers(cons.lambdas[:l], [n])
    return alpha_prod * complex(Jn[k - 1, l - 1])


# --- eigenvector-chain differences ----------------------------------------------------


def chain_difference_norms(cons: ShiftConstruction, n: int) -> tuple:
    """(head, tail) 2-norm parts of u^(n) - u^(parent of n).

    The head compares shared coordinates through the stable product-difference
    form; the tail collects the coefficients the longer chain adds.  Their
    squared sum is the full squared distance between the two eigenvectors.
    """
    if n < 2 or n > cons.levels:
        raise IndexOutOfRange(f"difference needs 2 <= n <= {cons.levels}")
    return _chain_difference(cons.lambdas, cons.alphas1, n)


# --- norms and verification -----------------------------------------------------------


def operator_norm(M, p) -> float:
    """Induced p-norm for p in {1, 2, inf}; on a stack (..., n, n), the largest.

    A stack of fiber blocks is their direct sum, whose norm is the largest
    block norm.  p = 1 and inf are exact absolute sums; p = 2 comes from the
    singular values.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise NonSquare(f"matrix of shape {M.shape} is not square")
    key = str(p).lower()
    if key not in ("1", "2", "inf"):
        raise ConfigInvalid(f"unsupported norm order {p!r}; use 1, 2, or inf")
    if M.size == 0:
        return 0.0
    if key == "1":
        return float(np.abs(M).sum(axis=-2).max())
    if key == "inf":
        return float(np.abs(M).sum(axis=-1).max())
    return float(np.linalg.norm(M, 2, axis=(-2, -1)).max())


@dataclass(frozen=True)
class PowerBoundRow:
    k: int
    n_k: int
    norm_diff: float
    norm_T: float
    analytic_bound: float
    diff_ok: bool
    t_ok: bool
    analytic_ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PowerBoundReport:
    p: str
    levels: int
    fibers: int
    rows: tuple
    fiber_truncation_bound: float

    @property
    def all_ok(self) -> bool:
        return all(r.diff_ok and r.t_ok and r.analytic_ok for r in self.rows)

    def csv_rows(self) -> list:
        return [(r.k, r.n_k, r.norm_diff, r.norm_T, r.analytic_bound) for r in self.rows]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def analytic_power_bound(cons: ShiftConstruction, L: int, n: int) -> float:
    """Upper bound on ||T^n - D^n|| from the weighted coefficient tails.

    Sums the per-level tail bounds with measured coefficient magnitudes.  The
    fiber decay only shrinks individual entries, and the bound dominates the
    max column sum, the max row sum, and hence also the spectral norm.
    """
    (Jn,) = _unit_band_powers(cons.lambdas[:L], [n])
    return _power_tail_bound(cons, L, Jn)


def _power_tail_bound(cons: ShiftConstruction, L: int, Jn: np.ndarray) -> float:
    """analytic_power_bound from J^n over the first L eigenvalues."""
    return sum(_tail_sum(Jn, cons.weights, cons._gap_of, level) for level in range(2, L + 1))


def verify_partial_power_bound(cons: ShiftConstruction, L: int, I: int, P: int, p) -> PowerBoundReport:
    """Measure ||T^{n_k} - D^{n_k}|| and ||T^{n_k}|| for k <= P against the bounds.

    T^n comes from the exact-phase kernel, whose diagonal is the exact D^n, so
    the difference is the strictly upper part of T^n: the genuine band
    contribution.  Every fiber band is positive, so the kernel's balancing
    turns each block into the unit-band J on the exact eigenvalues: the
    record's J^n of each row, cut to L levels, gives T^n = J^n * band_products
    and the analytic tail bound alike.  Each row also carries that bound; a certified
    construction must come out with measured <= 1, operator power <= 2, and
    analytic bound at least the measured value.
    """
    if not cons.certified:
        raise BudgetsNotCertified("verification requires a construction whose budgets all passed")
    if P < 1 or P > cons.horizon:
        raise HorizonExceedsSequence(f"powers horizon {P} outside 1..{cons.horizon}")
    products = band_products(assemble_operator(cons, L, I).blocks)
    rows = []
    for k in range(1, P + 1):
        n = cons.seq.terms[k - 1]
        Jn = cons.powers[k - 1][:L, :L]
        Tn = Jn * products
        norm_diff = operator_norm(np.triu(Tn, 1), p)
        norm_T = operator_norm(Tn, p)
        bound = _power_tail_bound(cons, L, Jn)
        rows.append(
            PowerBoundRow(
                k=k,
                n_k=n,
                norm_diff=norm_diff,
                norm_T=norm_T,
                analytic_bound=bound,
                diff_ok=norm_diff <= 1.0 + 1e-8,
                t_ok=norm_T <= 2.0 + 1e-8,
                analytic_ok=bound >= norm_diff - 1e-8,
            )
        )
    # levels truncated to I fibers: dropped entries shrink geometrically
    trunc = FIBER_DECAY ** I / (1.0 - FIBER_DECAY)
    trunc *= sum(cons.alphas1)
    return PowerBoundReport(
        p=str(p).lower(),
        levels=L,
        fibers=I,
        rows=tuple(rows),
        fiber_truncation_bound=trunc,
    )
