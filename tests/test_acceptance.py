"""Acceptance gate: eleven end-to-end criteria at their stated tolerances.

Each test prints exactly one pass/fail line (visible under pytest -s or in
failure output) and then asserts.  Stated runtime ceilings are enforced with
wall-clock checks.  Everything is deterministic: fixed seeds, fixed horizons.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from jamison.construction import (
    assemble_operator,
    build_construction,
    matrix_power,
    operator_norm,
    verify_partial_power_bound,
)
from jamison.errors import BudgetInfeasible
from jamison.semigroup import (
    check_lattice,
    evolve,
    generator_spectrum_check,
    principal_log,
    unit_interval_sup,
)
from jamison.sequences import (
    IndexSequence,
    box_dimension_estimate,
    chord_torus_bounds_check,
    separation_constant,
    unit_point,
)
from jamison.starnorm import ExpSpan, base_norm, dj_bound_check, star_norm, verify_translation_bound

from blocks import dense_block, fiber_rescaled, fiber_weights, operator_power, unit_band_powers

ROOT_HALF_PI = math.sqrt(math.pi / 2.0)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def factorial_seq():
    return IndexSequence.factorials(8)


@pytest.fixture(scope="session")
def certified(factorial_seq):
    return build_construction(factorial_seq, L=8, K=8, w=tuple(float(l) for l in range(1, 9)))


@pytest.fixture(scope="session")
def lifted(certified):
    op = assemble_operator(certified, 2)
    return op, principal_log(op)


def test_criterion_01_separation_dichotomy(factorial_seq):
    ints = IndexSequence.integers_up_to(1000)
    floors = {}
    for K in (10, 100, 1000):
        t0 = time.perf_counter()
        rep = separation_constant(ints, K, resolution=1e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        floors[K] = rep.epsilon_hat_torus
    fact_floors = []
    for K in (4, 6, 8):
        t0 = time.perf_counter()
        rep = separation_constant(factorial_seq, K, resolution=1e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        fact_floors.append(rep.epsilon_hat_torus)
    grid_error = 1e-6 * factorial_seq.terms[-1]
    ok = (
        all(f >= 0.30 and abs(f - 1.0 / 3.0) <= 0.04 for f in floors.values())
        and fact_floors[-1] <= 1.0 / 7.0 + grid_error
        and all(b < a for a, b in zip(fact_floors, fact_floors[1:]))
    )
    announce(1, ok, f"ints floor {min(floors.values()):.4f}, factorial tail {fact_floors[-1]:.4f}")
    assert all(f >= 0.30 for f in floors.values())
    assert all(abs(f - 1.0 / 3.0) <= 0.04 for f in floors.values())
    assert fact_floors[-1] <= 1.0 / 7.0 + grid_error
    assert all(b < a for a, b in zip(fact_floors, fact_floors[1:]))


def test_criterion_02_construction_certification(factorial_seq):
    t0 = time.perf_counter()
    cons = build_construction(factorial_seq, L=8, K=8, w=tuple(float(l) for l in range(1, 9)))
    elapsed = time.perf_counter() - t0
    with pytest.raises(BudgetInfeasible) as err:
        build_construction(IndexSequence.integers_up_to(100), L=5, K=100, w=(1.0, 2.0, 3.0, 4.0, 5.0))
    ok = cons.certified and err.value.level <= 3 and elapsed < 60.0
    announce(2, ok, f"factorials certified in {elapsed:.1f}s; integers infeasible at level {err.value.level}")
    assert cons.certified
    assert all(b.all_ok for b in cons.budgets)
    assert err.value.level <= 3
    assert elapsed < 60.0


def test_criterion_03_power_bounds(certified):
    t0 = time.perf_counter()
    report = verify_partial_power_bound(certified, 2, 8, 2)
    elapsed = time.perf_counter() - t0
    worst_diff = max(r.norm_diff for r in report.rows)
    worst_T = max(r.norm_T for r in report.rows)
    ok = worst_diff <= 1.0 + 1e-8 and worst_T <= 2.0 + 1e-8 and elapsed < 120.0
    announce(3, ok, f"max |T^n - D^n| = {worst_diff:.3e}, max |T^n| = {worst_T:.6f}")
    assert len(report.rows) == 8
    assert worst_diff <= 1.0 + 1e-8
    assert worst_T <= 2.0 + 1e-8
    assert elapsed < 120.0


def test_criterion_04_eigenvector_cauchy(certified):
    worst_margin = math.inf
    for n in range(3, 9):
        budget = certified.budget(n)
        dist = math.hypot(budget.eigvec_a, budget.eigvec_b)
        worst_margin = min(worst_margin, 2.0 ** -n - dist)
        assert dist <= 2.0 ** -n
    announce(4, worst_margin >= 0.0, f"smallest budget margin {worst_margin:.3e}")
    assert worst_margin >= 0.0


def _brute_symmetric_sum(lams, m: int) -> complex:
    total = 0.0 + 0.0j
    for combo in itertools.combinations_with_replacement(lams, m):
        prod = 1.0 + 0.0j
        for z in combo:
            prod *= z
        total += prod
    return total


def test_criterion_05_symmetric_sum_oracles(certified):
    # h_m(x_1..x_r) is the corner (1, r) of the unit-band J^(m + r - 1) from the exact-phase kernel
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(0, 13))
        points = [Fraction(float(u)) for u in rng.uniform(0.0, 1.0, size=r)]
        (Jn,) = unit_band_powers(points, [m + r - 1])
        want = _brute_symmetric_sum([unit_point(p) for p in points], m)
        worst_sum = max(worst_sum, abs(Jn[0, r - 1] - want) / max(1.0, abs(want)))
    assert worst_sum <= 1e-10

    # entry (k, l) of T^n is the band product alpha_{i,k} ... alpha_{i,l-1} times h_{n-(l-k)};
    # fiber i's T^n is fiber 1's rescaled, and the float power of fiber i's own block
    op = assemble_operator(certified, 2)
    lams = [unit_point(p) for p in certified.lambdas]
    worst_coeff = 0.0
    for n in (1, 2, 3, 5, 8, 12):
        Tn = operator_power(op, n)
        for i in (1, 2):
            got = fiber_rescaled(Tn, i)
            dense = matrix_power(fiber_rescaled(dense_block(op), i), n)
            for k, l in itertools.product(range(1, 9), range(1, 9)):
                h = _brute_symmetric_sum(lams[k - 1:l], n - (l - k)) if k <= l <= k + n else 0.0
                want = math.prod(fiber_weights(certified, i)[k - 1:l - 1]) * h
                entry = got[k - 1, l - 1]
                worst_coeff = max(worst_coeff, abs(entry - want), abs(entry - dense[k - 1, l - 1]))
    ok = worst_sum <= 1e-10 and worst_coeff <= 1e-10
    announce(5, ok, f"symmetric-sum err {worst_sum:.2e}, coefficient err {worst_coeff:.2e}")
    assert worst_coeff <= 1e-10


def test_criterion_06_semigroup_lift(certified, lifted):
    op, sg = lifted
    t0 = time.perf_counter()
    lattice = check_lattice(sg, certified.seq, 8)
    spectrum = generator_spectrum_check(sg)
    shift_norm = operator_norm(op.shift_part(), 2)
    elapsed = time.perf_counter() - t0
    ok = (
        sg.roundtrip_error <= 1e-10
        and lattice.all_ok
        and spectrum.max_real_part <= 1e-9
        and shift_norm < 1.0 / 3.0
        and elapsed < 30.0
    )
    announce(
        6,
        ok,
        f"roundtrip {sg.roundtrip_error:.1e}, lattice err "
        f"{max(r.rel_err for r in lattice.rows):.1e}, |B| = {shift_norm:.4f}",
    )
    assert sg.roundtrip_error <= 1e-10
    assert lattice.tol == 1e-8 and lattice.all_ok
    assert spectrum.max_real_part <= 1e-9
    assert shift_norm < 1.0 / 3.0
    assert elapsed < 30.0


def test_criterion_07_half_step_boundedness(certified, lifted):
    _, sg = lifted
    _, certified_sup = unit_interval_sup(sg)
    worst_ratio = 0.0
    for n in certified.seq.terms:
        at_half, at_node = (operator_norm(E, 2) for E in evolve(sg, [n + 0.5, float(n)]))
        bound = certified_sup * at_node * (1.0 + 1e-6)
        worst_ratio = max(worst_ratio, at_half / bound)
        assert at_half <= bound
    announce(7, worst_ratio <= 1.0, f"grid sup {certified_sup:.6f}, worst half-step ratio {worst_ratio:.4f}")
    assert worst_ratio <= 1.0


def test_criterion_08_star_norm_constants(factorial_seq):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    worst_single = 0.0
    for eta in rng.uniform(0.05, 6.0, size=50):
        got = star_norm(ExpSpan(((1.0 + 0.0j, float(eta)),)), factorial_seq, J=2, K=6)
        worst_single = max(worst_single, abs(got.value - ROOT_HALF_PI))
        assert got.mode == "exact-factorized"
    assert worst_single <= 1e-12

    samples = []
    for eta, xi in rng.uniform(0.1, 4.0, size=(3, 2)):
        samples.append(ExpSpan(((1.0 + 0.0j, float(eta)),)))
        samples.append(ExpSpan(((1.0 + 0.0j, float(eta)), (-1.0 + 0.0j, float(xi)))))
    translation = verify_translation_bound(factorial_seq, samples, J=1, K=6, P=6)
    assert translation.all_ok
    assert translation.max_ratio <= 5.0 * (1.0 + 1e-6)

    worst_pair = 0.0
    for eta, xi in rng.uniform(0.05, 5.0, size=(100, 2)):
        delta = abs(float(eta) - float(xi))
        if delta < 1e-9:
            xi = eta + 0.5
            delta = 0.5
        closed = math.pi * (1.0 - math.exp(-delta))
        cos_part, _ = quad(
            lambda t: 1.0 / (1.0 + t * t), 0.0, np.inf,
            weight="cos", wvar=delta, epsabs=1e-11, epsrel=0.0,
        )
        numeric = math.pi - 2.0 * cos_part
        worst_pair = max(worst_pair, abs(closed - numeric))
        span = ExpSpan(((1.0 + 0.0j, float(eta)), (-1.0 + 0.0j, float(xi))))
        assert abs(base_norm(span) ** 2 - closed) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = worst_single <= 1e-12 and worst_pair <= 1e-8 and elapsed < 60.0
    announce(
        8,
        ok,
        f"single-norm err {worst_single:.1e}, translation max ratio "
        f"{translation.max_ratio:.3f}, closed-form err {worst_pair:.1e}",
    )
    assert worst_pair <= 1e-8
    assert elapsed < 60.0


def test_criterion_09_product_difference_induction(factorial_seq):
    rng = np.random.default_rng(9)
    worst_slack = 0.0
    for _ in range(20):
        eta, xi = rng.uniform(0.0, 3.0, size=2)
        if abs(eta - xi) < 1e-6:
            xi = eta + 0.5
        report = dj_bound_check(float(eta), float(xi), factorial_seq, J=3, K=6)
        assert report.all_ok
        base_row = report.rows[0]
        assert base_row.j == 0
        assert base_row.value == report.d_zero
        assert base_row.bound == report.d_zero
        for row in report.rows:
            slack = row.value / row.bound if row.bound > 0 else 0.0
            worst_slack = max(worst_slack, slack)
            assert row.value <= row.bound * (1.0 + 1e-12)
    announce(9, True, f"20 pairs, j <= 3, tightest bound usage {worst_slack:.4f}")


def test_criterion_10_chord_torus_sandwich():
    thetas = np.linspace(0.5e-5, 0.5, 100_000)
    report = chord_torus_bounds_check(thetas)
    ok = report.all_ok and report.count == 100_000
    announce(
        10,
        ok,
        f"lower ratio >= {report.min_lower_ratio:.6f}, upper ratio <= {report.max_upper_ratio:.6f}",
    )
    assert report.all_ok
    assert report.count == 100_000
    assert report.min_lower_ratio >= 1.0 - 1e-14
    assert report.max_upper_ratio <= 1.0 + 1e-14


def test_criterion_11_dimension_probe_sanity():
    uniform = [Fraction(i, 1024) for i in range(1024)]
    dim_uniform = box_dimension_estimate(uniform, [2.0 ** -e for e in range(3, 9)])

    xs = [Fraction(0)]
    for _ in range(9):
        xs = [x / 3 for x in xs] + [x / 3 + Fraction(2, 3) for x in xs]
    dim_thirds = box_dimension_estimate(xs, [3.0 ** -e for e in range(2, 8)])
    target = math.log(2) / math.log(3)
    ok = abs(dim_uniform - 1.0) <= 0.05 and abs(dim_thirds - target) <= 0.05
    announce(11, ok, f"uniform {dim_uniform:.3f} (want 1), middle-thirds {dim_thirds:.3f} (want {target:.3f})")
    assert dim_uniform == pytest.approx(1.0, abs=0.05)
    assert dim_thirds == pytest.approx(target, abs=0.05)
