import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jamison.construction as construction
import jamison.funm as funm
from jamison import (
    IndexSequence,
    ShiftConstruction,
    analytic_power_bound,
    assemble_operator,
    build_construction,
    fiber_map,
    matrix_power,
    operator_norm,
    verify_partial_power_bound,
)
from jamison.errors import (
    BudgetInfeasible,
    BudgetsNotCertified,
    ConfigInvalid,
    HorizonExceedsSequence,
    InvalidIndex,
    NonSquare,
    PreconditionViolated,
    SizeMismatch,
    WeightListTooShort,
)
from jamison.construction import TruncatedOperator
from jamison.sequences import unit_diff, unit_point
from jamison.serialize import construction_to_json_dict

from blocks import dense_block, fiber_rescaled, fiber_weights, operator_power, unit_band_powers
from test_exact_phase import _err, _opitz, power_value

# Golden data frozen from the first certified runs; the whole pipeline is
# deterministic so these reproduce bit-for-bit on rebuild.
LOG10_GAPS_L8 = [
    -6.710430642,
    -18.632443738,
    -31.029876022,
    -43.853277027,
    -57.074618036,
    -70.676170284,
    -84.645699316,
]
LOG10_GAPS_L5 = [-4.962242615, -13.387877340, -22.288934723, -31.615960253]
DELTAS_L5 = [
    "1/576000",
    "1/153481914662400",
    "1/122212208353903808348160",
    "1/259501648370471623835181970882560",
]
VERIFY_ROWS_L8 = [
    (1, 1, 9.739560558004054e-08, 1.000000048697804, 1.9479593228870516e-07),
    (2, 2, 1.947912111600801e-07, 1.0000000973956102, 3.895918645778747e-07),
    (3, 6, 5.843736334802106e-07, 1.0000002921868592, 1.1687755937391593e-06),
    (4, 24, 2.3374945339188453e-06, 1.0000011687479486, 4.675102375053345e-06),
    (5, 120, 1.1687472669338728e-05, 1.0000058437534032, 2.337551187744118e-05),
    (6, 720, 7.012483596015348e-05, 1.0000350630326298, 0.0001402530712535916),
    (7, 5040, 0.0004908738324100105, 1.0002454670355876, 0.0009817714652276238),
    (8, 40320, 0.003926980723797351, 1.0019654180051865, 0.007854152181982252),
]
NUCLEAR_L8 = 1.9479593228870516e-07


@pytest.fixture(scope="module")
def factorial_cons():
    return build_construction(
        IndexSequence.factorials(8), L=8, K=8, w=(1, 2, 3, 4, 5, 6, 7, 8)
    )


@pytest.fixture(scope="module")
def small_cons():
    return build_construction(IndexSequence.factorials(6), L=5, K=6, w=(1, 2, 3, 4, 5))


@pytest.fixture(scope="module")
def synthetic_cons():
    # plainly separated angles: budgets measure honestly and fail
    return ShiftConstruction(
        IndexSequence.factorials(6),
        [Fraction(1, 23), Fraction(1, 31), Fraction(1, 41), Fraction(1, 53), Fraction(2, 23)],
        (1.0, 2.0, 3.0, 4.0, 5.0),
        horizon=6,
    )


# --- fiber map ---------------------------------------------------------------


def test_fiber_map_golden_table():
    got = {n: fiber_map(n) for n in range(2, 17)}
    assert got == {
        2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 3, 8: 1, 9: 2, 10: 3,
        11: 4, 12: 1, 13: 2, 14: 3, 15: 4, 16: 5,
    }


def test_fiber_map_parent_below_and_recurrence():
    values = [fiber_map(n) for n in range(2, 2 + 15 * 16 // 2)]  # 15 full blocks
    for offset, v in enumerate(values):
        assert v < offset + 2
    for m in range(1, 16):
        assert values.count(m) == 15 - m + 1


def test_fiber_map_invalid():
    for bad in (1, 0, -3):
        with pytest.raises(InvalidIndex):
            fiber_map(bad)
    with pytest.raises(InvalidIndex):
        fiber_map(2.0)


# --- weights ------------------------------------------------------------------


def test_level_weights_validation():
    with pytest.raises(ConfigInvalid):
        construction.level_weights((), 0)
    with pytest.raises(ConfigInvalid):
        construction.level_weights((1.0, -2.0), 2)
    with pytest.raises(WeightListTooShort):
        construction.level_weights((1.0,), 3)
    # w_l sets the band between levels l and l + 1: L levels keep w_1..w_{L-1}
    assert construction.level_weights((1, 2), 3) == (1.0, 2.0)
    assert construction.level_weights((1, 2, 7), 3) == (1.0, 2.0)


def test_alpha_fiber_decay(synthetic_cons):
    # alpha_{i,l} = w_l FIBER_DECAY**i g_{l+1} / g_l with w_l = l and g_1 = 1
    g = dict(enumerate(synthetic_cons.gaps, start=2))
    assert fiber_weights(synthetic_cons, 1)[1] * g[2] / g[3] == pytest.approx(1.0)
    assert fiber_weights(synthetic_cons, 2)[1] * g[2] / g[3] == pytest.approx(0.5)
    assert fiber_weights(synthetic_cons, 3)[0] / g[2] == pytest.approx(1.0 / 8.0)


# --- symmetric sums -------------------------------------------------------------
# h_m(x_1..x_r) is the corner (1, r) of J^(m + r - 1), J the unit band on the variables:
# the exact-phase kernel's route on exact angles, the one every budget reads.


def brute_homogeneous(xs, m):
    if not xs:
        return 1.0 if m == 0 else 0.0
    total = 0j
    head, rest = xs[0], xs[1:]
    for j in range(m + 1):
        total += head ** j * brute_homogeneous(rest, m - j)
    return total


def kernel_homogeneous(thetas, m):
    """h_m over the unimodular variables e^(2 pi i theta), from the exact-phase kernel."""
    points = [Fraction(theta) for theta in thetas]
    (Jn,) = unit_band_powers(points, [m + len(points) - 1])
    return complex(Jn[0, -1])


def test_symmetric_sum_basics():
    assert kernel_homogeneous([0, 0, 0], 3) == 10.0  # C(5, 2) monomials, each 1
    theta = Fraction(7, 62)
    assert kernel_homogeneous([theta], 0) == 1.0
    lam = unit_point(theta)
    assert kernel_homogeneous([theta], 9) == pytest.approx(lam ** 9, abs=1e-12)


def test_symmetric_sum_matches_composition_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(0, 13))
        thetas = [Fraction(float(u)) for u in rng.uniform(0.0, 1.0, size=r)]
        expected = brute_homogeneous([unit_point(t) for t in thetas], m)
        got = kernel_homogeneous(thetas, m)
        scale = max(abs(expected), 1.0)
        assert abs(got - expected) <= 1e-10 * scale


def test_symmetric_sum_large_degree_closed_form():
    # two variables: h_m = (x^(m+1) - y^(m+1)) / (x - y), every phase from its exact angle
    a, b, m = Fraction(1, 7), Fraction(1, 5), 2000
    expected = unit_diff(a * (m + 1), b * (m + 1)) / unit_diff(a, b)
    assert kernel_homogeneous([a, b], m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [math.factorial(8) - 1, math.factorial(10) - 1])
@pytest.mark.parametrize("offsets", [(0, Fraction(1, 10**4)), (0, Fraction(1, 10**4), Fraction(23, 10**5))])
def test_symmetric_sum_factorial_degree_mpmath_oracle(offsets, m):
    # clustered unimodular variables against sum_i x_i^(m+r-1) / prod_{j != i} (x_i - x_j),
    # evaluated at 80 digits on the very same exact angles
    thetas = [Fraction(1, 10) + d for d in offsets]
    r = len(thetas)
    with mpmath.workdps(80):
        zs = [mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator) for t in thetas]
        want = complex(mpmath.fsum(
            zs[i] ** (m + r - 1) / mpmath.fprod(zs[i] - zs[j] for j in range(r) if j != i)
            for i in range(r)
        ))
    got = kernel_homogeneous(thetas, m)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000), min_size=2, max_size=5),
    st.integers(min_value=1, max_value=30),
)
def test_symmetric_sum_peeling_recursion(thetas, m):
    lhs = kernel_homogeneous(thetas, m)
    x = unit_point(thetas[-1])
    rhs = kernel_homogeneous(thetas[:-1], m) + x * kernel_homogeneous(thetas, m - 1)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# --- power coefficients -----------------------------------------------------------
# Entry (k, l) of T^n is alpha_{i,k} ... alpha_{i,l-1} h_{n-(l-k)}(lambda_k..lambda_l), zero
# below the diagonal and past the band; operator_power takes T^n from the exact-phase kernel.


def test_power_coefficient_vanishing_and_diagonal(synthetic_cons):
    op = assemble_operator(synthetic_cons, 2)
    for n in (0, 1, 2, 7):
        Tn = operator_power(op, n)
        for k, l in iter_product(range(1, 6), range(1, 6)):
            if k > l:
                assert Tn[k - 1, l - 1] == 0
            elif l - k > n:  # the divided-difference steps leave their rounding there
                assert abs(Tn[k - 1, l - 1]) <= 1e-13 * np.linalg.norm(Tn)
        diagonal = [unit_point(theta, n) for theta in synthetic_cons.lambdas]
        assert (np.diag(Tn) == diagonal).all()


def test_power_coefficient_matches_dense_powers(synthetic_cons):
    # every fiber's T^n is fiber 1's rescaled, against the float power of that fiber's own block
    op = assemble_operator(synthetic_cons, 3)
    worst = 0.0
    for i in (1, 2, 3):
        block = np.diag([unit_point(theta) for theta in synthetic_cons.lambdas])
        block += np.diag(fiber_weights(synthetic_cons, i), k=1)
        for n in (0, 1, 2, 3, 5, 8, 12):
            got = fiber_rescaled(operator_power(op, n), i)
            worst = max(worst, float(np.abs(got - matrix_power(block, n)).max()))
    assert worst <= 1e-10


# --- assembly ----------------------------------------------------------------------


def test_assemble_two_level_golden(synthetic_cons):
    # the operator has every level of its record; fewer levels take a prefix record
    cons = synthetic_cons
    op = assemble_operator(ShiftConstruction(cons.seq, cons.lambdas[:2], cons.weights, cons.horizon), 1)
    lam1 = unit_point(synthetic_cons.lambdas[0])
    lam2 = unit_point(synthetic_cons.lambdas[1])
    expected = np.array([[lam1, fiber_weights(synthetic_cons, 1)[0]], [0.0, lam2]])
    assert op.thetas == synthetic_cons.lambdas[:2]
    assert op.band.tolist() == fiber_weights(synthetic_cons, 1)[:1]
    assert (op.levels, op.fibers) == (2, 1)
    assert np.allclose(dense_block(op), expected, atol=1e-15)


def test_assemble_band_pattern(synthetic_cons):
    op = assemble_operator(synthetic_cons, 2)
    assert op.band.dtype == np.float64 and op.band.shape == (4,)
    assert op.fibers == 2
    block = dense_block(op)
    for i in (1, 2):
        B = fiber_rescaled(block, i)
        rows, cols = np.nonzero(B - np.diag(np.diag(B)))
        assert list(zip(rows, cols)) == [(l - 2, l - 1) for l in range(2, 6)]
        assert np.diag(B, k=1).tolist() == fiber_weights(synthetic_cons, i)
        assert (np.diag(B) == np.diag(block)).all()
    assert np.max(np.abs(np.abs(np.diag(block)) - 1.0)) <= 1e-14


def test_assemble_shift_norm_vs_svd(synthetic_cons):
    op = assemble_operator(synthetic_cons, 1)
    B = op.shift_part()
    top = float(np.linalg.norm(B, 2))
    assert operator_norm(B, 2) == pytest.approx(top, rel=1e-9)
    assert top <= max(synthetic_cons.alphas1) + 1e-12


def test_assemble_size_mismatch(synthetic_cons):
    with pytest.raises(SizeMismatch):
        assemble_operator(synthetic_cons, 0)


def test_operator_refuses_a_band_unlike_its_angles(synthetic_cons):
    # the band holds one weight per pair of neighbouring levels; any other
    # length would index past the exact angles in every kernel call
    op = assemble_operator(synthetic_cons, 1)
    for band in (op.band[:3], np.append(op.band, 0.1), np.diag(op.band, 1)):
        with pytest.raises(SizeMismatch):
            TruncatedOperator(op.thetas, band)
    with pytest.raises(SizeMismatch):
        TruncatedOperator(op.thetas[:4], op.band)


def test_power_band_closure(synthetic_cons):
    op = assemble_operator(synthetic_cons, 2)
    for n in range(0, 7):
        Tn = matrix_power(dense_block(op), n)
        width = min(n, 4)
        for k, l in iter_product(range(1, 6), range(1, 6)):
            if l - k > width or l < k:
                assert Tn[k - 1, l - 1] == 0


def test_diagonal_power_is_isometry(synthetic_cons):
    rng = np.random.default_rng(11)
    x = rng.normal(size=10) + 1j * rng.normal(size=10)
    # exact-angle powers keep the diagonal unimodular at any exponent
    for n in (1, 7, 40320):
        entries = [unit_point(theta, n) for theta in synthetic_cons.lambdas]
        Dn = np.diag(np.repeat(entries, 2))
        for p in (1, 2):
            assert np.linalg.norm(Dn @ x, p) == pytest.approx(np.linalg.norm(x, p), rel=1e-14)
    # repeated squaring agrees at small exponents before rounding accumulates
    op = assemble_operator(synthetic_cons, 2)
    D = np.diag(np.diag(dense_block(op)))  # every fiber's
    fibers_x = x.reshape(2, 5, 1)  # x split into its two fiber coordinates
    for n in (1, 7, 31):
        Dn = matrix_power(D, n)
        for p in (1, 2):
            y = (Dn @ fibers_x).ravel()
            assert np.linalg.norm(y, p) == pytest.approx(np.linalg.norm(x, p), rel=1e-14)


# --- eigenvector chains ---------------------------------------------------------------


def _chain(cons, n: int) -> list:
    """The level-n eigenvector chain c_1..c_n, from its differences lambda_n - lambda_q, q < n."""
    diffs = [unit_diff(cons.lambdas[n - 1], p) for p in cons.lambdas[: n - 1]]
    return construction._chain_coeffs(diffs, cons.alphas1)


def test_chain_first_levels(factorial_cons):
    cons = factorial_cons
    assert _chain(cons, 1) == [1 + 0j]
    c2 = _chain(cons, 2)[1]
    # modulus collapses to 1 / w_{1,1} = 2 / w_1 after the gap cancels
    assert abs(c2) == pytest.approx(2.0, rel=1e-12)


def test_chain_residuals(factorial_cons):
    # the chain _chain_difference feeds into the budgets is an eigenvector of the fiber block
    cons = factorial_cons
    op = assemble_operator(cons, 1)
    for n in range(1, 9):
        v = np.zeros(8, dtype=complex)
        v[:n] = _chain(cons, n)
        lam = unit_point(cons.lambdas[n - 1])
        resid = np.linalg.norm(dense_block(op) @ v - lam * v)
        assert resid <= 1e-10 * np.linalg.norm(v)


def test_a_budget_takes_each_node_difference_once(factorial_cons, monkeypatch):
    # lambda_n - lambda_q for q < n (lambda_n - lambda_j among them) and lambda_j - lambda_q for q < j
    cons = factorial_cons
    calls = []
    honest = construction.unit_diff
    monkeypatch.setattr(construction, "unit_diff", lambda a, b: calls.append((a, b)) or honest(a, b))
    for n in range(2, 9):
        calls.clear()
        cons.budget(n)
        assert len(calls) == (n - 1 + fiber_map(n) - 1 if n >= 3 else 0), n
        assert len(set(calls)) == len(calls)
    # level n's search target takes lambda_j - lambda_q for the n - 2 levels q != j before it
    for n in range(3, 9):
        calls.clear()
        prefix = ShiftConstruction(cons.seq, cons.lambdas[: n - 1], cons.weights, cons.horizon)
        construction._level_search_target(prefix, cons.weights)
        assert len(calls) == n - 2 and all(a != b for a, b in calls), n
        assert len(set(calls)) == len(calls)


# SHA-256 of the angles each near_return_search call returned in the L = 10 factorial build
# (linear weights), one comma-joined line per call, recorded before the separation floor and the
# near-return search shared one box-search driver
NEAR_RETURNS_L10_SHA256 = "f7dab5dedc54d12bd46ee3d76e351d6473b96e99bb8f623b08463af9816572be"


def test_near_returns_of_the_l10_build_keep_their_angles(monkeypatch):
    returned = []
    search = construction.near_return_search
    monkeypatch.setattr(
        construction, "near_return_search", lambda *args, **kwargs: returned.append(search(*args, **kwargs)) or returned[-1]
    )
    build_construction(IndexSequence.factorials(12), L=10, K=10, w=[float(l) for l in range(1, 10)])
    text = "\n".join(",".join(str(theta) for theta in angles) for angles in returned)
    assert len(returned) == 9
    assert hashlib.sha256(text.encode()).hexdigest() == NEAR_RETURNS_L10_SHA256


def test_chain_cauchy_estimate(factorial_cons):
    for n in range(3, 9):
        budget = factorial_cons.budget(n)
        assert math.hypot(budget.eigvec_a, budget.eigvec_b) <= 2.0 ** -n


def _chain_difference_oracle(cons, n):
    """(head, tail) of u^(n) - u^(parent of n) in 900-digit arithmetic on the exact angles and weights.

    Straight from the definitions: no product-difference identity, no
    half-angle form, no scaling.  Past level 9 of the factorial ladder the
    parts fall below 1e-154, whose squares are not doubles.
    """
    with mpmath.workdps(900):
        lam = [mpmath.expjpi(2 * mpmath.mpf(p.numerator) / p.denominator) for p in cons.lambdas]

        def gap(l):
            return mpmath.mpf(1) if l == 1 else abs(lam[l - 1] - lam[fiber_map(l) - 1])

        alpha = [mpmath.mpf(w) / 2 * gap(l + 1) / gap(l) for l, w in enumerate(cons.weights, start=1)]
        j = fiber_map(n)
        head = mpmath.fsum(
            abs((mpmath.fprod(lam[n - 1] - x for x in lam[: m - 1]) - mpmath.fprod(lam[j - 1] - x for x in lam[: m - 1]))
                / mpmath.fprod(alpha[: m - 1])) ** 2
            for m in range(2, j + 1)
        )
        tail = mpmath.fsum(
            abs(mpmath.fprod(lam[n - 1] - x for x in lam[: m - 1]) / mpmath.fprod(alpha[: m - 1])) ** 2
            for m in range(j + 1, n + 1)
        )
        return float(mpmath.sqrt(head)), float(mpmath.sqrt(tail))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-150, 1e150), max_size=12))
# x ** 2 goes through the C library's pow, which may miss x * x by an ulp
@example([2.7843401940295e149, 5.384536657571958e149])
def test_scaled_norm_keeps_the_bits_of_the_plain_sum_of_squares(values):
    # no square underflows in this range, so the power-of-two scaling must change no bit
    assert construction._norm2(values) == math.sqrt(sum(v * v for v in values))


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 9), K=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_tail_table_keeps_the_bits_of_the_per_level_loop(L, K, seed):
    # each entry summed k = l-1 down to 1 from 0.0, each term (W_k (g_l / g_k)) |h| in Python floats
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, K, L, L)) * 10.0 ** rng.integers(-40, 40, (2, K, L, L))
    powers = re + 1j * im
    w = tuple(rng.uniform(0.25, 8.0, L - 1).tolist())
    gaps = {1: 1.0, **{l: 10.0 ** -rng.uniform(0, 80) for l in range(2, L + 1)}}
    table = construction._tail_table(powers, w, gaps)
    for k, Jn in enumerate(powers):
        for level in range(2, L + 1):
            row = np.abs(Jn[: level - 1, level - 1]).tolist()
            total = 0.0
            for q in range(level - 1, 0, -1):
                total += math.prod(reversed(w[q - 1: level - 1])) * (gaps[level] / gaps[q]) * row[q - 1]
            assert table[k, level - 2] == total


def _tail_max_oracle(cons) -> dict:
    """Every level's tail_max from the |h| of Opitz's formula for the unit-band J^n, at 900
    digits on the exact angles, each J^n checked against a run 60 digits finer; the weight and
    gap coefficients are the construction's own."""
    gaps = construction.gaps_table(cons.lambdas, cons.levels)
    thetas = cons.lambdas
    band = [mpmath.mpf(1)] * (cons.levels - 1)
    powers = []
    for n in cons.seq.prefix(cons.horizon):
        coarse, fine = (_opitz(thetas, band, power_value(Fraction(n)), dps) for dps in (900, 960))
        assert _err(coarse, fine, band) <= 1e-60
        powers.append([[float(abs(x)) for x in row] for row in fine])
    table = construction._tail_table(np.array(powers), cons.weights, gaps)
    return dict(enumerate(table.max(axis=0).tolist(), start=2))


@pytest.mark.parametrize("L", [11, 12, 13])
def test_stored_chain_differences_match_the_mpmath_oracle(L):
    cons = build_construction(IndexSequence.factorials(L), L=L, K=L, w=tuple(range(1, L)))
    tails = _tail_max_oracle(cons)
    for record in construction_to_json_dict(cons)["budgets"]:
        level = record["level"]
        want = {"tail_max": tails[level]}
        if level >= 3:
            want.update(zip(("eigvec_a", "eigvec_b"), _chain_difference_oracle(cons, level)))
        for field, value in want.items():
            # zeros included: an empty head is exactly 0.0, and a value below 1e-154 is no zero
            assert abs(record[field] - value) <= 1e-12 * value, (level, field, record[field], value)


# --- adaptive build -------------------------------------------------------------------


def test_factorial_build_certified_golden(factorial_cons):
    cons = factorial_cons
    assert cons.certified
    assert cons.levels == 8
    for g, expected in zip(cons.gaps, LOG10_GAPS_L8):
        assert math.log10(g) == pytest.approx(expected, abs=1e-6)
    assert cons.budgets[0].delta == Fraction(1, 32256000)
    for budget in cons.budgets:
        assert budget.all_ok
        assert budget.tail_max <= budget.tail_budget
    assert cons.nuclear_partial_sum == pytest.approx(NUCLEAR_L8, rel=1e-12)
    # the nuclear series' terms w_l g_{l+1} / g_l, from l = 2 on
    for level, alpha in enumerate(cons.alphas1[1:], start=2):
        assert alpha / construction.FIBER_DECAY <= 2.0 ** -level


def test_small_build_golden(small_cons):
    assert small_cons.certified
    for g, expected in zip(small_cons.gaps, LOG10_GAPS_L5):
        assert math.log10(g) == pytest.approx(expected, abs=1e-6)
    got = [f"{b.delta.numerator}/{b.delta.denominator}" for b in small_cons.budgets]
    assert got == DELTAS_L5


def test_build_reaches_level_eleven():
    # the profile gate resolves 1/n_h, so the sub-resolution witnesses at 1/11! open up
    cons = build_construction(IndexSequence.factorials(11), L=11, K=11, w=tuple(range(1, 12)))
    assert cons.certified and cons.levels == 11


# The search target of each level of the L = 8 factorial ladder (linear weights,
# horizon 8), as recorded in the ladder's construction file when it still stored them.
ETA_L8 = [
    0.02010765581379156,
    2.393408887907834e-14,
    9.584834444594821e-27,
    1.439407000413891e-39,
    8.646544913873705e-53,
    2.164164924016757e-66,
    2.32146062593769e-80,
]


def test_level_search_targets_pinned_on_the_L8_ladder(factorial_cons):
    cons = factorial_cons
    prefixes = [None] + [ShiftConstruction(cons.seq, cons.lambdas[:levels], cons.weights, 8) for levels in range(2, 8)]
    got = [construction._level_search_target(prefix, cons.weights) for prefix in prefixes]
    assert got == ETA_L8


def test_record_reduces_its_angles_mod_one_and_shares_them(synthetic_cons):
    cons = synthetic_cons
    turned = [theta + k for k, theta in zip((1, -2, 3, 0, -1), cons.lambdas)]
    again = ShiftConstruction(cons.seq, turned, cons.weights, cons.horizon)
    assert again.lambdas == cons.lambdas
    assert all(type(theta) is Fraction and 0 <= theta < 1 for theta in again.lambdas)
    assert assemble_operator(again, 2).thetas is again.lambdas


def test_record_holds_only_its_choices(factorial_cons):
    assert [f.name for f in dataclasses.fields(ShiftConstruction)] == ["seq", "lambdas", "weights", "horizon"]
    # the build returns its last accepted trial, whose powers J^(n_k) are already measured
    assert "powers" in vars(factorial_cons)
    assert len(factorial_cons.powers) == 8 and factorial_cons.powers[0].shape == (8, 8)


def _principal_block_budget(cons, level):
    """Level l measured on the powers of its own l x l principal block: the reference for
    the record's full-block powers.  Returns the chain differences and tail_max."""
    thetas, w = cons.lambdas, cons.weights
    gaps = construction.gaps_table(thetas, level)
    eig = (0.0, 0.0)
    if level >= 3:
        eig = construction._chain_difference(thetas, construction._alphas_fiber1(gaps, w, level - 1), level)
    powers = unit_band_powers(thetas[:level], cons.seq.prefix(cons.horizon))
    tail_max = max(construction._tail_table(powers, w, gaps)[:, -1].tolist())
    return eig, tail_max


def _entry_error_bound(points, n: int) -> float:
    """The funm module docstring's first-order bound, 12 L u M_kl (1 + 2 scale / CLUSTER_GAP)^s,
    at its largest over the entries of J^n on these nodes (the unit band's products are 1).
    A cluster divided difference over d + 1 unimodular nodes is a complete homogeneous sum of
    at most C(n, d) unimodular monomials, which bounds M_kl; s is l - k across clusters."""
    scale = max(n, 1)
    label = funm.clusters(funm.NodeSet(tuple(points)), scale)
    L = len(points)
    worst = 0.0
    for k in range(L):
        for l in range(k, L):
            counts = Counter(label[k:l + 1])
            steps = l - k if len(counts) > 1 else 0
            M = max(math.comb(n, count - 1) for count in counts.values())
            worst = max(worst, M * (1 + 2 * scale / funm.CLUSTER_GAP) ** steps)
    return 12 * L * 2.0 ** -53 * worst


def _tail_slack(cons, level: int, routes) -> float:
    """How far level l's tail_max may stray on the given routes, each the nodes its powers
    were taken over, by the kernel's entry bound: a tail is linear in the moduli of the
    entries it reads."""
    gaps = construction.gaps_table(cons.lambdas, level)
    bounds = [np.full((level, level), sum(_entry_error_bound(points, n) for points in routes))
              for n in cons.seq.prefix(cons.horizon)]
    return max(construction._tail_table(np.array(bounds), cons.weights, gaps)[:, -1].tolist())


# drawn by the property test below; at level 3 their node clusters interleave, so the
# record's powers join them by divided-difference steps
_INTERLEAVED_SPECTRA = {
    "1/97,88/97,1/86": ((Fraction(1, 97), Fraction(88, 97), Fraction(1, 86)), (1, 12)),
    "4/73,1/97,2/37": ((Fraction(4, 73), Fraction(1, 97), Fraction(2, 37)), (1, 17)),
}


def _mp_tail_max(cons, level: int) -> float:
    """Level l's tail_max from the complete homogeneous sums in 50-digit mpmath, with the
    construction's own weight and gap coefficients."""
    gaps = construction.gaps_table(cons.lambdas, level)
    with mpmath.workdps(50):
        lam = [mpmath.expjpi(2 * mpmath.mpf(p.numerator) / p.denominator) for p in cons.lambdas]

        def h(m, zs):  # h_m(zs) as the divided difference of x^(m + r - 1)
            r = len(zs)
            return mpmath.fsum(zs[i] ** (m + r - 1) / mpmath.fprod(zs[i] - zs[j] for j in range(r) if j != i)
                               for i in range(r))

        def column(n):
            row = [abs(h(n - (level - k), lam[k - 1:level])) if n >= level - k else 0 for k in range(1, level)]
            Jn = np.zeros((level, level))
            Jn[: level - 1, level - 1] = [float(x) for x in row]
            return Jn

        powers = np.array([column(n) for n in cons.seq.prefix(cons.horizon)])
        return max(construction._tail_table(powers, cons.weights, gaps)[:, -1].tolist())


@pytest.mark.parametrize("angles, terms", _INTERLEAVED_SPECTRA.values(), ids=_INTERLEAVED_SPECTRA.keys())
def test_tail_max_routes_match_the_mpmath_oracle(angles, terms):
    # each route, the record's full block and the level's principal block, within its own
    # kernel bound of the 50-digit value (plus a few u for the tail's own sum)
    cons = ShiftConstruction(IndexSequence(terms), angles, (1.0,) * 5, horizon=len(terms))
    for budget in cons.budgets:
        level = budget.level
        want = _mp_tail_max(cons, level)
        _, block_tail = _principal_block_budget(cons, level)
        assert abs(budget.tail_max - want) <= _tail_slack(cons, level, [cons.lambdas]) + 4 * level * 2.0 ** -53 * want
        assert abs(block_tail - want) <= _tail_slack(cons, level, [cons.lambdas[:level]]) + 4 * level * 2.0 ** -53 * want


@settings(max_examples=30, deadline=None)
@given(
    angles=st.lists(
        st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97), max_denominator=97),
        min_size=3, max_size=6, unique=True,
    ),
    steps=st.lists(st.integers(1, 50), min_size=1, max_size=6),
    w=st.lists(st.floats(0.25, 8.0), min_size=5, max_size=5),
)
@example(angles=[Fraction(1, 97), Fraction(88, 97), Fraction(1, 86)], steps=[11], w=[1.0] * 5)
@example(angles=[Fraction(4, 73), Fraction(1, 97), Fraction(2, 37)], steps=[16], w=[1.0] * 5)
def test_record_budgets_match_per_level_principal_blocks(angles, steps, w):
    # the chain differences share one routine and match bit for bit; the tails come from two
    # kernel routes, so they match to within the sum of both routes' kernel bounds
    terms = [1]
    for step in steps:
        terms.append(terms[-1] + step)
    cons = ShiftConstruction(IndexSequence(tuple(terms)), angles, w, horizon=len(terms))
    for budget in cons.budgets:
        level = budget.level
        (eig_a, eig_b), tail_max = _principal_block_budget(cons, level)
        assert (budget.eigvec_a, budget.eigvec_b) == (eig_a, eig_b)
        routes = [cons.lambdas, cons.lambdas[:level]]
        assert abs(budget.tail_max - tail_max) <= _tail_slack(cons, level, routes)
        assert budget.tail_sum_ok == (tail_max <= budget.tail_budget)
        assert budget.eigvec_budget_ok == (eig_a <= budget.eigvec_budget and eig_b <= budget.eigvec_budget)


def test_build_is_deterministic(small_cons):
    again = build_construction(IndexSequence.factorials(6), L=5, K=6, w=(1, 2, 3, 4, 5))
    assert again.lambdas == small_cons.lambdas


def test_build_orders_all_angles_inside_arc(factorial_cons):
    theta1 = factorial_cons.lambdas[0]
    for p in factorial_cons.lambdas[1:]:
        assert 0 < p < theta1
    assert len(set(factorial_cons.lambdas)) == 8


def test_build_linear_sequence_infeasible():
    with pytest.raises(BudgetInfeasible) as exc:
        build_construction(IndexSequence.integers_up_to(100), L=5, K=100, w=(1, 2, 3, 4, 5))
    assert exc.value.level <= 3


def test_build_validation():
    seq = IndexSequence.factorials(6)
    with pytest.raises(ConfigInvalid):
        build_construction(seq, L=1, K=6, w=(1.0,))
    with pytest.raises(WeightListTooShort):
        build_construction(seq, L=4, K=6, w=(1.0, 2.0))
    with pytest.raises(HorizonExceedsSequence):
        build_construction(seq, L=3, K=9, w=(1.0, 2.0, 3.0))
    with pytest.raises(PreconditionViolated):
        build_construction(IndexSequence((1, 2.5, 7.9), "real"), L=2, K=3, w=(1.0, 2.0))


# --- operator norms ---------------------------------------------------------------------


def test_operator_norm_basics():
    eye = np.eye(6, dtype=complex)
    phases = np.exp(2j * np.pi * np.linspace(0.1, 0.9, 6))
    for p in (1, 2, "inf"):
        assert operator_norm(eye, p) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(np.diag(phases), p) == pytest.approx(1.0, abs=1e-12)
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert operator_norm(M, 1) == 2.0
    assert operator_norm(M, "inf") == 2.0
    assert operator_norm(M, 2) == pytest.approx(2.0, rel=1e-12)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        assert operator_norm(A, 2) == pytest.approx(float(np.linalg.norm(A, 2)), rel=1e-9)


def test_operator_norm_of_stack_is_largest_block():
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    for p in (1, 2, "inf"):
        assert operator_norm(stack, p) == max(operator_norm(block, p) for block in stack)


def test_operator_norm_errors():
    with pytest.raises(NonSquare):
        operator_norm(np.ones((2, 3)), 1)
    with pytest.raises(NonSquare):
        operator_norm(np.ones((3, 2, 3)), 2)
    with pytest.raises(NonSquare):
        operator_norm(np.ones(3), "inf")
    with pytest.raises(ConfigInvalid):
        operator_norm(np.eye(2), 3)


# --- power-bound verification ----------------------------------------------------------


def test_verify_power_bounds_golden(factorial_cons):
    rep = verify_partial_power_bound(factorial_cons, 2, 8, 2)
    assert rep.all_ok
    assert len(rep.rows) == 8
    for row, frozen in zip(rep.rows, VERIFY_ROWS_L8):
        k, n_k, diff, norm_t, bound = frozen
        assert row.k == k and row.n_k == n_k
        assert row.norm_diff == pytest.approx(diff, rel=1e-9)
        assert row.norm_T == pytest.approx(norm_t, rel=1e-9)
        assert row.analytic_bound == pytest.approx(bound, rel=1e-9)
        assert row.norm_diff <= 1.0 + 1e-8
        assert row.norm_T <= 2.0 + 1e-8
        assert row.analytic_bound >= row.norm_diff - 1e-8


def test_verify_other_norms(small_cons):
    for p in (1, "inf"):
        rep = verify_partial_power_bound(small_cons, 2, 6, p)
        assert rep.all_ok


def test_verify_requires_certified(synthetic_cons):
    with pytest.raises(BudgetsNotCertified):
        verify_partial_power_bound(synthetic_cons, 1, 6, 2)


def test_verify_horizon_gate(small_cons):
    with pytest.raises(HorizonExceedsSequence):
        verify_partial_power_bound(small_cons, 1, 7, 2)


def test_powers_of_constructions_take_the_exact_phase_kernel(monkeypatch):
    # float squaring loses about n * eps, so it is left to the tests as their oracle
    def refuse(M, n):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(construction, "matrix_power", refuse)
    cons = build_construction(IndexSequence.factorials(6), L=5, K=6, w=(1, 2, 3, 4, 5))
    report = verify_partial_power_bound(cons, 2, 6, 2)
    assert report.all_ok
    # verify sums the record's tails; analytic_power_bound forms one power's: the same bits
    assert [analytic_power_bound(cons, row.n_k) for row in report.rows] == [row.analytic_bound for row in report.rows]


def test_zeroed_band_power_difference_vanishes(small_cons):
    T_no_band = dense_block(assemble_operator(small_cons, 2))
    T_no_band[~np.eye(5, dtype=bool)] = 0.0
    D = np.diag(np.diag(T_no_band))
    for n in (1, 6, 720):
        diff = matrix_power(T_no_band, n) - matrix_power(D, n)
        assert np.all(diff == 0)
        assert operator_norm(diff, 2) == 0.0
