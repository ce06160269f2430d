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
part.  Every angle is a Fraction in turns, in [0, 1) once the record holds
it.  Fiber i's weights are fiber 1's times 2^-(i-1), so the operator is
held as its exact angles and fiber 1's band: every other fiber is an exact
rescaling of fiber 1, with no larger norm (TruncatedOperator).

Everything here is deterministic: the near-return search is a box search
plus exact rational witnesses, budgets are re-checked with exact-angle
arithmetic after every selection, and builds with identical inputs produce
identical output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
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
    InvariantFailure,
    NonSquare,
    OutOfDomain,
    PreconditionViolated,
    SizeMismatch,
    WeightListTooShort,
)
from .funm import NodeSet, Power, apply
from .sequences import IndexSequence, chord_distance, near_return_search, torus_from_chord, unit_diff


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
    """w_1..w_{levels-1} as floats, from a list of at least that many, all normal positive doubles.

    w_l sets the band between levels l and l+1; fiber i carries w_l * FIBER_DECAY**i.
    """
    w = tuple(float(x) for x in w)
    if not w:
        raise ConfigInvalid("weight list is empty")
    if any(not math.isfinite(x) or x <= 0.0 for x in w):
        raise ConfigInvalid("all level weights must be positive and finite")
    if min(w) < sys.float_info.min:  # a subnormal's fiber-1 shift weight can round to 0
        raise ConfigInvalid(f"level weight {min(w)!r} is below the normal double range")
    if len(w) < levels - 1:
        raise WeightListTooShort(f"{len(w)} weights for {levels} levels; need {levels - 1}")
    return w[: levels - 1]


# --- budget certificates ---------------------------------------------------------


def _thresholds(level: int, gaps: dict, w: tuple) -> tuple:
    """Level l's (gap_bound, eigvec_budget, tail_budget): g_{l-1}/(2^l w_{l-1}), 2^-(l+1), 2^(1-l).

    Level 2 has no gap or eigenvector predicate, so its first two read inf.
    """
    tail_budget = 2.0 ** (1 - level)
    if level < 3:
        return math.inf, math.inf, tail_budget
    return gaps[level - 1] / (2 ** level * w[level - 2]), 2.0 ** -(level + 1), tail_budget


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
    every other field, the thresholds from ``_thresholds`` as the search does.
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
        gap_bound, eigvec_budget, tail_budget = _thresholds(level, gaps, w)
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
            delta=thetas[fiber_map(level) - 1] - thetas[level - 1],
        )


# --- symmetric sums and coefficient rows -----------------------------------------


def _suffix_weight_products(w: tuple, level: int) -> dict:
    """W(k) = w_k * w_{k+1} * ... * w_{level-1} for k = 1..level-1."""
    out = {}
    acc = 1.0
    for k in range(level - 1, 0, -1):
        acc *= w[k - 1]
        out[k] = acc
    return out


def _tail_table(powers: np.ndarray, w: tuple, gaps: dict) -> np.ndarray:
    """Weighted coefficient tails, fiber-summed bound: entry (k-1, l-2) is level l's at the k-th power.

    powers is a stack of J^n over L levels; column l of each holds the
    coefficient row |h_{n-(l-k)}(lambda_k..lambda_l)| for k = 1..l-1, with
    zeros where l - k > n.  Each entry sums (W_k (g_l / g_k)) |h| from 0.0,
    k = l-1 down to 1, with W_k = w_k ... w_{l-1}.
    """
    moduli = np.abs(powers)
    table = np.zeros((len(powers), powers.shape[-1] - 1))
    for level in range(2, powers.shape[-1] + 1):
        wprod = _suffix_weight_products(w, level)
        for k in range(level - 1, 0, -1):
            table[:, level - 2] += wprod[k] * (gaps[level] / gaps[k]) * moduli[:, k - 1, level - 1]
    return table


# --- stable product differences and eigenvector chains ----------------------------


def _telescoped(d: complex, fx: list, fy: list) -> complex:
    """d * sum_r prod_{q<r} fx[q] prod_{q>r} fy[q]: prod(fx) - prod(fy) when fx - fy is d in every slot."""
    prefix, suffix = [1 + 0j], [1 + 0j]  # prod fx[:q] for q = 0..r; prod fy[q:] for q = r down to 0
    for f, g in zip(fx, reversed(fy)):
        prefix.append(prefix[-1] * f)
        suffix.append(suffix[-1] * g)
    total = 0j
    for p, s in zip(prefix, reversed(suffix[:-1])):
        total += p * s
    return d * total


def _alphas_fiber1(gaps: dict, w: tuple, upto: int) -> list:
    """Fiber-1 shift weights alpha_{1,l} = w_l FIBER_DECAY g_{l+1} / g_l for l = 1..upto (g_1 = 1)."""
    return [w[l - 1] * FIBER_DECAY * gaps[l + 1] / gaps[l] for l in range(1, upto + 1)]


def _chain_coeffs(diffs, alphas1) -> list:
    """Fiber-1 eigenvector coefficients c_1..c_n, from diffs[q-1] = lambda_n - lambda_q for q = 1..n-1."""
    coeffs = [1 + 0j]
    for d, alpha in zip(diffs, alphas1):
        coeffs.append(coeffs[-1] * d / alpha)
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
    scaled = [math.ldexp(v, -e) for v in values]
    return math.ldexp(math.sqrt(sum(x * x for x in scaled)), e)


def _chain_difference(thetas, alphas1, n: int) -> tuple:
    """(head, tail) 2-norm parts of the fiber-1 chain difference u^(n) - u^(j(n)).

    Each node difference is taken once: lambda_n - lambda_q (q < n, so
    lambda_n - lambda_j too) and lambda_j - lambda_q (q < j).
    """
    j = fiber_map(n)
    from_n = [unit_diff(thetas[n - 1], theta) for theta in thetas[: n - 1]]
    from_j = [unit_diff(thetas[j - 1], theta) for theta in thetas[: j - 1]]
    head = [
        abs(_telescoped(from_n[j - 1], from_n[: m - 1], from_j[: m - 1]) / math.prod(alphas1[: m - 1]))
        for m in range(2, j + 1)
    ]
    tail = [abs(c) for c in _chain_coeffs(from_n, alphas1)[j:]]
    return _norm2(head), _norm2(tail)


# --- the construction record ----------------------------------------------------------


def gaps_table(thetas, upto: int) -> dict:
    """g_l for l = 1..upto: g_1 = 1, and from l = 2 the chord distance from level l to its parent level."""
    return {1: 1.0, **{l: chord_distance(thetas[l - 1], thetas[fiber_map(l) - 1]) for l in range(2, upto + 1)}}


@dataclass(frozen=True)
class ShiftConstruction:
    """One truncated operator, held as what was chosen: exact level angles, weights w_1..w_{L-1}, horizon.

    Angles are rationals in turns, reduced mod 1 on entry to Fractions in
    [0, 1); the operator shares that tuple (assemble_operator).  Every other
    table is derived from the choices once, on first use: gaps[l-2] is the
    chord distance from level l to its parent level, for l = 2..L (its
    table also holds g_1 = 1); alphas1[l-1] is the fiber-1 shift weight for
    l = 1..L-1 (fiber i: times FIBER_DECAY**(i-1)); nodes is the NodeSet of
    the angles, which the operator shares (assemble_operator); powers[k-1]
    is J^(n_k) over all L levels for k = 1..horizon; tails[k-1, l-2] is
    level l's coefficient tail at n_k, which budgets and verify both read;
    budgets[l-2] is level l's LevelBudget, measured from those and judged.
    No search happens here, so a spectrum that fails a predicate simply
    comes out uncertified.  The file format belongs to ``jamison.serialize``.
    """

    seq: IndexSequence
    lambdas: tuple
    weights: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(Fraction(p) % 1 for p in self.lambdas))
        if self.levels < 2:
            raise ConfigInvalid(f"a construction needs at least two levels, got {self.levels}")
        object.__setattr__(self, "weights", level_weights(self.weights, self.levels))
        if not 1 <= self.horizon <= len(self.seq):
            raise HorizonExceedsSequence(f"horizon {self.horizon} outside 1..{len(self.seq)}")
        if len(set(self.lambdas)) != len(self.lambdas):
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
        return tuple(self._gap_of.values())[1:]

    @cached_property
    def alphas1(self) -> tuple:
        return tuple(_alphas_fiber1(self._gap_of, self.weights, self.levels - 1))

    @cached_property
    def nodes(self) -> NodeSet:
        return NodeSet(self.lambdas)

    @cached_property
    def powers(self) -> np.ndarray:
        """J^n for each n of the horizon, J = diag(e^(2 pi i theta)) + unit superdiagonal, in one kernel call.

        Entry (k, l) of J^n is the complete homogeneous sum
        h_{n-(l-k)}(lambda_k..lambda_l) (Opitz's divided-difference matrix).
        J is upper triangular, so every principal block of J^n is the n-th
        power of the same block of J: one power serves every level and every
        coefficient row.
        """
        return apply(self.nodes, [Power(n) for n in self.seq.prefix(self.horizon)])

    @cached_property
    def tails(self) -> np.ndarray:
        return _tail_table(self.powers, self.weights, self._gap_of)

    def budget(self, level: int) -> LevelBudget:
        """Measure level l's eigenvector-chain difference, read its largest tail from ``tails``, and judge them."""
        if not 2 <= level <= self.levels:
            raise IndexOutOfRange(f"budget level {level} outside 2..{self.levels}")
        eig_a, eig_b = _chain_difference(self.lambdas, self.alphas1, level) if level >= 3 else (0.0, 0.0)
        tail_max = max(self.tails[:, level - 2].tolist())
        return LevelBudget.judge(level, self.lambdas, self._gap_of, self.weights, eig_a, eig_b, tail_max)

    @cached_property
    def budgets(self) -> tuple:
        return tuple(self.budget(level) for level in range(2, self.levels + 1))

    @property
    def nuclear_partial_sum(self) -> float:
        """sum over l of w_l g_{l+1} / g_l, with g_1 = 1: the fiber-1 weights over FIBER_DECAY, a power of two."""
        return sum(self.alphas1) / FIBER_DECAY


# --- adaptive build ---------------------------------------------------------------------


SEARCH_ROUNDS = 6  # near-return searches per level; the target shrinks sixteen-fold after each


def _chord_to_eta(chord_bound: float) -> float:
    """Torus-norm search target guaranteeing a chord bound, with quarter margin.

    Since the index sequence starts at 1, any offset delta accepted at target
    eta satisfies |delta| <= eta on the torus, hence its chord is at most
    2 sin(pi eta).  Inverting and keeping a quarter of the slack absorbs the
    search's granularity.
    """
    return torus_from_chord(chord_bound) / 4.0


def _saturating_float(n: int) -> float:
    """n as a double, rounded as float(n) rounds it, or inf past the double range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _level_search_target(prefix: ShiftConstruction | None, w) -> float:
    """Back-solved eta target making all predicates of the level after ``prefix`` attainable.

    prefix is the accepted record of the levels before, whose gaps and
    fiber-1 weights the bounds read; level 2 (prefix None) needs only w_1.
    """
    if prefix is None:
        return _chord_to_eta(min(2.0, 1.0 / (2.0 * w[0])))
    thetas, gaps, alphas1 = prefix.lambdas, prefix._gap_of, prefix.alphas1
    level = prefix.levels + 1
    j = fiber_map(level)
    lam_j = thetas[j - 1]
    # |lambda_j - lambda_q|; no product reads q = j - 1, which holds 0.0
    dist = [0.0 if q == j - 1 else abs(unit_diff(lam_j, p)) for q, p in enumerate(thetas)]
    # (a) gap recursion; (b) eigenvector budgets, linearized in the new gap with a 2x safety factor
    g_a, budget, tail_budget = _thresholds(level, gaps, w)
    a_slope_sq = 0.0
    for m in range(2, j + 1):
        denom = math.prod(alphas1[: m - 1])
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
        denom = math.prod(alphas1[: m - 1])
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
    for n in prefix.seq.prefix(prefix.horizon):
        kmin = max(1, level - n)
        tot = 0.0
        for k in range(kmin, level):
            tot += wprod[k] * _saturating_float(math.comb(n, level - k)) / gaps[k]
        worst = max(worst, tot)
    g_c = tail_budget / worst if worst > 0.0 else math.inf
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
    level 14) stops the build with predicate float_range, and a candidate
    whose gap to its parent is no normal double counts as failing it (and a
    round where every candidate does ends the level).

    In exact arithmetic the returned record's budgets are the trial
    judgments, so a level it fails is a kernel error: InvariantFailure.
    """
    if seq.kind != "integer":
        raise PreconditionViolated("construction requires an integer sequence; reduce real input first")
    if K < 1 or K > len(seq):
        raise HorizonExceedsSequence(f"horizon {K} outside 1..{len(seq)}")
    if L < 2:
        raise ConfigInvalid(f"a construction needs at least two levels, got {L}")
    w = level_weights(w, L)

    theta1 = Fraction(torus_from_chord(1.0 / 3.0))
    thetas, prefix = (theta1,), None
    for level in range(2, L + 1):
        parent = thetas[fiber_map(level) - 1]
        eta = _level_search_target(prefix, w)
        accepted = None
        last_failure = None
        for _ in range(SEARCH_ROUNDS):
            if not eta >= sys.float_info.min:
                raise BudgetInfeasible(
                    level, "float_range", f"search target eta = {eta!r} is below the normal double range"
                )
            candidates = near_return_search(
                seq, K, eta, max_candidates=4, arc=(Fraction(0), parent)
            )
            gaps = []
            for offset in candidates:
                new_theta = parent - offset
                if not 0 < new_theta < theta1:
                    continue
                if new_theta in thetas:
                    continue
                gaps.append(chord_distance(new_theta, parent))
                if not gaps[-1] >= sys.float_info.min:
                    last_failure = "float_range"  # its gap is no normal double
                    continue
                trial = ShiftConstruction(seq, (*thetas, new_theta), w, K)
                record = trial.budget(level)
                if record.all_ok:
                    accepted = trial
                    break
                last_failure = record.failing_predicate()
            if accepted is not None:
                break
            if gaps and max(gaps) < sys.float_info.min:  # t_1 = 1: a smaller eta offers no larger gap
                raise BudgetInfeasible(
                    level, "float_range",
                    f"largest candidate gap to the parent {max(gaps)!r} is below the normal double range",
                )
            eta /= 16.0
        if accepted is None:
            if last_failure is not None:
                raise BudgetInfeasible(
                    level, last_failure, f"no candidate passed within {SEARCH_ROUNDS} search rounds"
                )
            raise BudgetInfeasible(
                level, "eta_search", "near-return search found no usable candidates"
            )
        thetas, prefix = accepted.lambdas, accepted

    failing = next((b for b in accepted.budgets if not b.all_ok), None)
    if failing is not None:
        raise InvariantFailure(
            f"the built record fails level {failing.level} {failing.failing_predicate() + '_ok'!r}, "
            "which its trial record passed",
            dict(vars(failing)),
        )
    return accepted


# --- matrix assembly and powers ------------------------------------------------------


@dataclass(frozen=True)
class TruncatedOperator:
    """The direct sum of ``fibers`` upper-bidiagonal blocks, held as fiber 1's exact angles and band.

    Fiber 1's block is the unimodular diagonal e^(2 pi i theta_l) on the exact
    level angles thetas (turns), which no float copy repeats, plus the band:
    the L-1 float64 weights alpha_{1,l}, each linking level l+1 to level l.
    Fiber i's block is D T_1 D^-1 with D = diag(FIBER_DECAY**((i-1) k)), so
    f(T_i) is f(T_1) times FIBER_DECAY**((i-1)(l-k)) entrywise, exactly in
    binary: fiber 1 and the count stand for every fiber, in every check and
    every artifact.  No entry grows, which bounds the 1- and
    inf-norms by fiber 1's; for p = 2 the rescaling is a Schur product with
    the positive definite [c^|k-l|], 0 < c < 1, which is no expansion.  So
    the norm of the direct sum is fiber 1's.
    """

    thetas: tuple
    band: np.ndarray
    fibers: int = 1
    nodes: NodeSet = field(default=None, compare=False, repr=False)  # every function of T reads it (funm.apply)

    def __post_init__(self):
        band = np.array(self.band, dtype=np.float64)
        if band.shape != (len(self.thetas) - 1,):
            raise SizeMismatch(f"band of shape {band.shape} for {len(self.thetas)} angles")
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        if self.nodes is None:
            object.__setattr__(self, "nodes", NodeSet(self.thetas))

    @property
    def levels(self) -> int:
        return len(self.thetas)

    @cached_property
    def products(self) -> np.ndarray:
        """Entry (k, l), k < l, is b_k ... b_{l-1} over the band b; the rest read 1.

        Formed once per operator, in the band's doubles, left to right.  A
        product that underflows reads 0 or a subnormal with fewer digits, and
        so does its entry of every function of T; one that overflows is
        OutOfDomain.
        """
        out = np.ones((self.levels, self.levels))
        with np.errstate(over="ignore"):
            for k in range(self.levels - 1):
                out[k, k + 1:] = np.cumprod(self.band[k:])
        if not np.all(np.isfinite(out)):
            raise OutOfDomain("a band product overflows the double range")
        out.flags.writeable = False
        return out

    def shift_part(self) -> np.ndarray:
        return np.diag(self.band, 1)


def assemble_operator(cons: ShiftConstruction, I: int) -> TruncatedOperator:
    """The record's I-fiber operator: its exact angles, their node set, and fiber 1's shift weights as the band."""
    if I < 1:
        raise SizeMismatch(f"fiber count {I} must be >= 1")
    return TruncatedOperator(cons.lambdas, cons.alphas1, I, cons.nodes)


def matrix_power(M: np.ndarray, n: int) -> np.ndarray:
    """Integer matrix power by binary exponentiation (n >= 0), blockwise on stacks."""
    if n < 0:
        raise ConfigInvalid("matrix powers here are for n >= 0")
    return np.linalg.matrix_power(np.asarray(M, dtype=complex), n)


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


def analytic_power_bound(cons: ShiftConstruction, n: int) -> float:
    """Upper bound on ||T^n - D^n|| from the weighted coefficient tails.

    Sums the per-level tail bounds with measured coefficient magnitudes: J^n's
    row of _tail_table, as verify reads n_k's from the record's tails.  The
    fiber decay only shrinks individual entries, and the bound dominates the
    max column sum, the max row sum, and hence also the spectral norm.
    """
    return sum(_tail_table(apply(cons.nodes, [Power(n)]), cons.weights, cons._gap_of)[0].tolist())


def verify_partial_power_bound(cons: ShiftConstruction, I: int, P: int, p) -> PowerBoundReport:
    """Measure ||T^{n_k} - D^{n_k}|| and ||T^{n_k}|| for k <= P against the bounds.

    T^n comes from the exact-phase kernel, whose diagonal is the exact D^n, so
    the difference is the strictly upper part of T^n: the genuine band
    contribution.  The record's J^n of each row, the divided differences of
    z^n on its exact eigenvalues over all its levels, gives T^n = J^n times
    the operator's band products (TruncatedOperator.products); the analytic
    bound sums that row of the record's tails, which its budgets read, so no
    tail is formed here.  Fiber 1's norms are the I-fiber operator's
    (TruncatedOperator), so only the truncation bound reads I.
    Each row also carries that bound; a certified construction must come out
    with measured <= 1, operator power <= 2, and analytic bound at least the
    measured value.
    """
    if not cons.certified:
        raise BudgetsNotCertified("verification requires a construction whose budgets all passed")
    if P < 1 or P > cons.horizon:
        raise HorizonExceedsSequence(f"powers horizon {P} outside 1..{cons.horizon}")
    products = assemble_operator(cons, I).products
    rows = []
    for k in range(1, P + 1):
        n = cons.seq.terms[k - 1]
        Tn = cons.powers[k - 1] * products
        norm_diff = operator_norm(np.triu(Tn, 1), p)
        norm_T = operator_norm(Tn, p)
        bound = sum(cons.tails[k - 1].tolist())
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
        levels=cons.levels,
        fibers=I,
        rows=tuple(rows),
        fiber_truncation_bound=trunc,
    )
