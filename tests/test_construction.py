import dataclasses
import math
from fractions import Fraction
from itertools import product as iter_product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jamison.construction as construction
from jamison import (
    IndexSequence,
    ShiftConstruction,
    analytic_power_bound,
    assemble_operator,
    build_construction,
    chain_difference_norms,
    fiber_map,
    matrix_power,
    operator_norm,
    power_coefficient,
    symmetric_sum,
    verify_partial_power_bound,
)
from jamison.errors import (
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
from jamison.serialize import construction_to_json_dict

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
    assert synthetic_cons.alpha(1, 2) * g[2] / g[3] == pytest.approx(1.0)
    assert synthetic_cons.alpha(2, 2) * g[2] / g[3] == pytest.approx(0.5)
    assert synthetic_cons.alpha(3, 1) / g[2] == pytest.approx(1.0 / 8.0)


# --- symmetric sums -------------------------------------------------------------


def brute_homogeneous(xs, m):
    if not xs:
        return 1.0 if m == 0 else 0.0
    total = 0j
    head, rest = xs[0], xs[1:]
    for j in range(m + 1):
        total += head ** j * brute_homogeneous(rest, m - j)
    return total


def test_symmetric_sum_basics():
    assert symmetric_sum([1.0, 1.0, 1.0], 3) == pytest.approx(10.0)
    assert symmetric_sum([2.0 + 1.0j], 0) == 1.0
    lam = complex(math.cos(0.7), math.sin(0.7))
    assert symmetric_sum([lam], 9) == pytest.approx(lam ** 9, abs=1e-12)
    with pytest.raises(NegativeDegree):
        symmetric_sum([1.0], -1)
    with pytest.raises(PreconditionViolated):
        symmetric_sum([], 2)


def test_symmetric_sum_matches_composition_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(0, 13))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=r)
        xs = [complex(math.cos(p), math.sin(p)) for p in phases]
        expected = brute_homogeneous(xs, m)
        got = symmetric_sum(xs, m)
        scale = max(abs(expected), 1.0)
        assert abs(got - expected) <= 1e-10 * scale


def test_symmetric_sum_large_degree_closed_form():
    # two real variables: h_m = (x^(m+1) - y^(m+1)) / (x - y)
    x, y, m = 0.9, 0.5, 2000
    expected = (x ** (m + 1) - y ** (m + 1)) / (x - y)
    assert symmetric_sum([x, y], m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [math.factorial(8) - 1, math.factorial(10) - 1])
@pytest.mark.parametrize("offsets", [(0.0, 1.0e-4), (0.0, 1.0e-4, 2.3e-4)])
def test_symmetric_sum_factorial_degree_mpmath_oracle(offsets, m):
    # clustered unimodular variables against sum_i x_i^(m+r-1) / prod_{j != i} (x_i - x_j),
    # evaluated at 80 digits from the very same double inputs
    xs = [complex(math.cos(2 * math.pi * (0.1 + d)), math.sin(2 * math.pi * (0.1 + d))) for d in offsets]
    r = len(xs)
    with mpmath.workdps(80):
        zs = [mpmath.mpc(x.real, x.imag) for x in xs]
        want = complex(mpmath.fsum(
            zs[i] ** (m + r - 1) / mpmath.fprod(zs[i] - zs[j] for j in range(r) if j != i)
            for i in range(r)
        ))
    got = symmetric_sum(xs, m)
    assert abs(got - want) <= 1e-8 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=5),
    st.integers(min_value=1, max_value=30),
)
def test_symmetric_sum_peeling_recursion(xs, m):
    lhs = symmetric_sum(xs, m)
    rhs = symmetric_sum(xs[:-1], m) + xs[-1] * symmetric_sum(xs, m - 1)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# --- power coefficients -----------------------------------------------------------


def test_power_coefficient_vanishing_and_diagonal(synthetic_cons):
    assert power_coefficient(synthetic_cons, 3, 2, 1, 5) == 0
    assert power_coefficient(synthetic_cons, 1, 4, 1, 2) == 0
    lam = synthetic_cons.lambdas[1]
    assert power_coefficient(synthetic_cons, 2, 2, 1, 7) == pytest.approx(
        lam.scaled(7).complex_value(), abs=1e-15
    )
    with pytest.raises(IndexOutOfRange):
        power_coefficient(synthetic_cons, 0, 2, 1, 5)
    with pytest.raises(IndexOutOfRange):
        power_coefficient(synthetic_cons, 1, 6, 1, 5)
    with pytest.raises(IndexOutOfRange):
        power_coefficient(synthetic_cons, 1, 2, 0, 5)


def test_power_coefficient_matches_dense_powers(synthetic_cons):
    worst = 0.0
    for I in (1, 2, 3):
        op = assemble_operator(synthetic_cons, 5, I)
        for n in (0, 1, 2, 3, 5, 8, 12):
            Tn = matrix_power(op.blocks, n)
            for k, l, i in iter_product(range(1, 6), range(1, 6), range(1, I + 1)):
                t = power_coefficient(synthetic_cons, k, l, i, n)
                worst = max(worst, abs(t - Tn[i - 1, k - 1, l - 1]))
    assert worst <= 1e-10


# --- assembly ----------------------------------------------------------------------


def test_assemble_two_level_golden(synthetic_cons):
    op = assemble_operator(synthetic_cons, 2, 1)
    lam1 = synthetic_cons.lambdas[0].complex_value()
    lam2 = synthetic_cons.lambdas[1].complex_value()
    expected = np.array([[lam1, synthetic_cons.alpha(1, 1)], [0.0, lam2]])
    assert op.blocks.shape == (1, 2, 2)
    assert np.allclose(op.blocks[0], expected, atol=1e-15)


def test_assemble_band_pattern(synthetic_cons):
    op = assemble_operator(synthetic_cons, 5, 2)
    assert op.blocks.shape == (2, 5, 5)
    for i in (1, 2):
        B = op.blocks[i - 1]
        rows, cols = np.nonzero(B - np.diag(np.diag(B)))
        assert list(zip(rows, cols)) == [(l - 2, l - 1) for l in range(2, 6)]
        assert np.diag(B, k=1).tolist() == [synthetic_cons.alpha(i, l) for l in range(1, 5)]
    diag = np.diagonal(op.blocks, axis1=1, axis2=2)
    assert np.max(np.abs(np.abs(diag) - 1.0)) <= 1e-14


def test_assemble_shift_norm_vs_svd(synthetic_cons):
    op = assemble_operator(synthetic_cons, 5, 1)
    B = op.shift_part()
    top = float(np.linalg.norm(B[0], 2))
    assert operator_norm(B, 2) == pytest.approx(top, rel=1e-9)
    assert top <= max(synthetic_cons.alphas1) + 1e-12


def test_assemble_size_mismatch(synthetic_cons):
    with pytest.raises(SizeMismatch):
        assemble_operator(synthetic_cons, 6, 1)
    with pytest.raises(SizeMismatch):
        assemble_operator(synthetic_cons, 3, 0)


def test_power_band_closure(synthetic_cons):
    op = assemble_operator(synthetic_cons, 5, 2)
    for n in range(0, 7):
        Tn = matrix_power(op.blocks, n)
        width = min(n, 4)
        for k, l in iter_product(range(1, 6), range(1, 6)):
            if l - k > width or l < k:
                for i in (1, 2):
                    assert Tn[i - 1, k - 1, l - 1] == 0


def test_diagonal_power_is_isometry(synthetic_cons):
    rng = np.random.default_rng(11)
    x = rng.normal(size=10) + 1j * rng.normal(size=10)
    # exact-angle powers keep the diagonal unimodular at any exponent
    for n in (1, 7, 40320):
        entries = [lam.scaled(n).complex_value() for lam in synthetic_cons.lambdas]
        Dn = np.diag(np.repeat(entries, 2))
        for p in (1, 2):
            assert np.linalg.norm(Dn @ x, p) == pytest.approx(np.linalg.norm(x, p), rel=1e-14)
    # repeated squaring agrees at small exponents before rounding accumulates
    op = assemble_operator(synthetic_cons, 5, 2)
    D = op.diagonal_part()
    fibers_x = x.reshape(2, 5, 1)  # x split into its two fiber coordinates
    for n in (1, 7, 31):
        Dn = matrix_power(D, n)
        for p in (1, 2):
            y = (Dn @ fibers_x).ravel()
            assert np.linalg.norm(y, p) == pytest.approx(np.linalg.norm(x, p), rel=1e-14)


# --- eigenvector chains ---------------------------------------------------------------


def test_chain_first_levels(factorial_cons):
    cons = factorial_cons
    assert construction._chain_coeffs(cons.lambdas, cons.alphas1, 1) == [1 + 0j]
    c2 = construction._chain_coeffs(cons.lambdas, cons.alphas1, 2)[1]
    # modulus collapses to 1 / w_{1,1} = 2 / w_1 after the gap cancels
    assert abs(c2) == pytest.approx(2.0, rel=1e-12)


def test_chain_residuals(factorial_cons):
    # the chain _chain_difference feeds into the budgets is an eigenvector of the fiber block
    cons = factorial_cons
    op = assemble_operator(cons, 8, 1)
    for n in range(1, 9):
        v = np.zeros(8, dtype=complex)
        v[:n] = construction._chain_coeffs(cons.lambdas, cons.alphas1, n)
        lam = cons.lambdas[n - 1].complex_value()
        resid = np.linalg.norm(op.blocks[0] @ v - lam * v)
        assert resid <= 1e-10 * np.linalg.norm(v)


def test_chain_cauchy_estimate(factorial_cons):
    for n in range(3, 9):
        a, b = chain_difference_norms(factorial_cons, n)
        assert math.hypot(a, b) <= 2.0 ** -n


def _chain_difference_oracle(cons, n):
    """(head, tail) of u^(n) - u^(parent of n) in 900-digit arithmetic on the exact angles and weights.

    Straight from the definitions: no product-difference identity, no
    half-angle form, no scaling.  Past level 9 of the factorial ladder the
    parts fall below 1e-154, whose squares are not doubles.
    """
    with mpmath.workdps(900):
        lam = [mpmath.expjpi(2 * mpmath.mpf(p.theta.numerator) / p.theta.denominator) for p in cons.lambdas]

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
def test_scaled_norm_keeps_the_bits_of_the_plain_sum_of_squares(values):
    # no square underflows in this range, so the power-of-two scaling must change no bit
    assert construction._norm2(values) == math.sqrt(sum(v * v for v in values))


@pytest.mark.parametrize("L", [11, 13])
def test_stored_chain_differences_match_the_mpmath_oracle(L):
    cons = build_construction(IndexSequence.factorials(L), L=L, K=L, w=tuple(range(1, L)))
    stored = construction_to_json_dict(cons)["budgets"]
    for record in stored[1:]:
        want = _chain_difference_oracle(cons, record["level"])
        for field, value in zip(("eigvec_a", "eigvec_b"), want):
            # zeros included: an empty head is exactly 0.0, and a value below 1e-154 is no zero
            assert abs(record[field] - value) <= 1e-12 * value, (record["level"], field, record[field], value)


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
    for level, term in cons.nuclear_terms()[1:]:
        assert term <= 2.0 ** -level


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
    got = [
        construction._level_search_target(cons.seq, cons.lambdas[: level - 1], cons.weights, 8, level)
        for level in range(2, 9)
    ]
    assert got == ETA_L8


def test_record_holds_only_its_choices(factorial_cons):
    assert [f.name for f in dataclasses.fields(ShiftConstruction)] == ["seq", "lambdas", "weights", "horizon"]
    # the build returns its last accepted trial, whose powers J^(n_k) are already measured
    assert "powers" in vars(factorial_cons)
    assert len(factorial_cons.powers) == 8 and factorial_cons.powers[0].shape == (8, 8)


def _principal_block_budget(cons, level):
    """Level l measured on the powers of its own l x l principal block: the reference for the record's full-block powers."""
    thetas, w = cons.lambdas, cons.weights
    gaps = construction.gaps_table(thetas, level)
    eig = (0.0, 0.0)
    if level >= 3:
        eig = construction._chain_difference(thetas, construction._alphas_fiber1(gaps, w, level - 1), level)
    powers = construction._unit_band_powers(thetas[:level], cons.seq.prefix(cons.horizon))
    tail_max = max(construction._tail_sum(Jn, w, gaps, level) for Jn in powers)
    return eig, tail_max


@settings(max_examples=30, deadline=None)
@given(
    angles=st.lists(
        st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97), max_denominator=97),
        min_size=3, max_size=6, unique=True,
    ),
    steps=st.lists(st.integers(1, 50), min_size=1, max_size=6),
    w=st.lists(st.floats(0.25, 8.0), min_size=5, max_size=5),
)
def test_record_budgets_match_per_level_principal_blocks(angles, steps, w):
    terms = [1]
    for step in steps:
        terms.append(terms[-1] + step)
    cons = ShiftConstruction(IndexSequence(tuple(terms)), angles, w, horizon=len(terms))
    for budget in cons.budgets:
        (eig_a, eig_b), tail_max = _principal_block_budget(cons, budget.level)
        assert (budget.eigvec_a, budget.eigvec_b) == (eig_a, eig_b)
        assert budget.tail_max == pytest.approx(tail_max, rel=1e-15, abs=0.0)
        assert budget.tail_sum_ok == (tail_max <= budget.tail_budget)
        assert budget.eigvec_budget_ok == (eig_a <= budget.eigvec_budget and eig_b <= budget.eigvec_budget)


def test_build_is_deterministic(small_cons):
    again = build_construction(IndexSequence.factorials(6), L=5, K=6, w=(1, 2, 3, 4, 5))
    assert [p.theta for p in again.lambdas] == [p.theta for p in small_cons.lambdas]


def test_build_orders_all_angles_inside_arc(factorial_cons):
    theta1 = factorial_cons.lambdas[0].theta
    for p in factorial_cons.lambdas[1:]:
        assert 0 < p.theta < theta1
    assert len({p.theta for p in factorial_cons.lambdas}) == 8


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
    rep = verify_partial_power_bound(factorial_cons, 8, 2, 8, 2)
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
        rep = verify_partial_power_bound(small_cons, 5, 2, 6, p)
        assert rep.all_ok


def test_verify_requires_certified(synthetic_cons):
    with pytest.raises(BudgetsNotCertified):
        verify_partial_power_bound(synthetic_cons, 5, 1, 6, 2)


def test_verify_horizon_gate(small_cons):
    with pytest.raises(HorizonExceedsSequence):
        verify_partial_power_bound(small_cons, 5, 1, 7, 2)


def test_verify_single_level_is_diagonal(small_cons):
    rep = verify_partial_power_bound(small_cons, 1, 2, 6, 2)
    for row in rep.rows:
        assert row.norm_diff == 0.0
        assert row.norm_T == pytest.approx(1.0, abs=1e-12)


def test_powers_of_constructions_take_the_exact_phase_kernel(monkeypatch):
    # float squaring loses about n * eps; it is left to symmetric_sum alone
    def refuse(M, n):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(construction, "matrix_power", refuse)
    cons = build_construction(IndexSequence.factorials(6), L=5, K=6, w=(1, 2, 3, 4, 5))
    assert verify_partial_power_bound(cons, 5, 2, 6, 2).all_ok
    assert power_coefficient(cons, 2, 4, 2, 720) != 0
    assert analytic_power_bound(cons, 5, 720) > 0


def test_zeroed_band_power_difference_vanishes(small_cons):
    op = assemble_operator(small_cons, 5, 2)
    T_no_band = np.array(op.blocks)
    T_no_band[:, ~np.eye(5, dtype=bool)] = 0.0
    D = op.diagonal_part()
    for n in (1, 6, 720):
        diff = matrix_power(T_no_band, n) - matrix_power(D, n)
        assert np.all(diff == 0)
        assert operator_norm(diff, 2) == 0.0
