"""The exact-phase kernel for T^n, Log T and T^t against a high-precision oracle.

T^n is checked on every route that takes it: the lattice check's single
fiber, verify's two fibers, and the unit-band J^n behind construct's budgets.

The oracle is Opitz's formula for an upper-bidiagonal block: entry (k, l) of
f(T) is the band product alpha_k ... alpha_{l-1} times the divided difference
f[x_k, ..., x_l] over the nodes x = e^(2 pi i theta).  The kernel uses the
same formula, but the oracle shares only the exact angles with its
arithmetic: no Taylor sum, no clusters, and a Newton table over all nodes in
level order at high precision.  Divided differences over the construction's
nearly coincident nodes (gaps down to 1e-148 turns at L = 10) cancel about
300 digits, so the oracle runs at ORACLE_DPS digits and checks itself
against a run 60 digits finer.

On the ladder, an error is the larger of two relative 1-norm distances:
the plain one, and one after the diagonal similarity that divides entry
(k, l) by |alpha_k ... alpha_{l-1}|.  Band products fall below 1e-80 at
L = 8, so in the plain measure an error deep in the band hides under
eps * ||f(T)||; once n >= L - 1 the scaled measure is ruled by the corner
(1, L), about C(n, L - 1), and an error near the diagonal hides there.

Run with -s to see the error per rung.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from jamison import IndexSequence, assemble_operator, build_construction
from jamison.construction import TruncatedOperator
from jamison.errors import OutOfDomain
from jamison.semigroup import evolve, principal_log

from blocks import fiber_rescaled, operator_power, unit_band_powers

ORACLE_DPS = 500
TOL = 1e-14


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _signed(theta: Fraction) -> Fraction:
    return (theta + Fraction(1, 2)) % 1 - Fraction(1, 2)


def _phase(theta: Fraction):
    """e^(2 pi i theta) at the working precision, theta reduced mod 1 exactly."""
    return mp.expjpi(2 * _mpf(theta % 1))


def _opitz(thetas, band, value, dps):
    with mp.workdps(dps):
        x = [_phase(t) for t in thetas]
        L = len(x)
        F = [[mp.mpc(0)] * L for _ in range(L)]
        dd = [value(t) for t in thetas]
        for d in range(L):
            if d:
                dd = [(dd[k + 1] - dd[k]) / (x[k + d] - x[k]) for k in range(L - d)]
            for k in range(L - d):
                F[k][k + d] = mp.fprod(band[k:k + d]) * dd[k]
        return F


def _rel(got, want, band=()) -> float:
    """Relative 1-norm distance, evaluated at 100 digits, after scaling by the products of band."""
    with mp.workdps(100):
        L = len(want)
        scale = [[abs(mp.fprod(band[k:l])) for l in range(L)] for k in range(L)]
        diff = max(sum(abs(mp.mpc(got[k][l]) - want[k][l]) / scale[k][l] for k in range(L)) for l in range(L))
        size = max(sum(abs(want[k][l]) / scale[k][l] for k in range(L)) for l in range(L))
        return float(diff / size)


def _err(got, want, band) -> float:
    """The larger of the plain and the band-scaled relative distances."""
    return max(_rel(got, want), _rel(got, want, band))


def oracle(thetas, band, value, dps=ORACLE_DPS):
    """f(T) from the exact angles and the (double) band, checked to 60 digits."""
    band = [mp.mpf(float(a)) for a in band]
    coarse = _opitz(thetas, band, value, dps)
    fine = _opitz(thetas, band, value, dps + 60)
    assert _err(coarse, fine, band) <= 1e-60
    return fine


def power_value(t: Fraction):
    return lambda theta: _phase(t * _signed(theta))


def log_value(theta):
    return 2j * mp.pi * _mpf(_signed(theta))


def _report(label, errors):
    print(f"\n{label}: " + ", ".join(f"{n}: {e:.1e}" for n, e in errors))


def _assert_flat(errors):
    """Every rung within TOL, and the deep rungs no worse than the shallow ones."""
    errs = [e for _, e in errors]
    assert max(errs) <= TOL
    half = len(errs) // 2
    assert max(errs[half:]) <= 8 * max(max(errs[:half]), 2.0 ** -53)


@pytest.fixture(scope="module", params=[8, 9, 10], ids=lambda L: f"L{L}")
def ladder(request):
    L = request.param
    seq = IndexSequence.factorials(L)
    cons = build_construction(seq, L=L, K=L, w=tuple(range(1, L + 1)))
    op = assemble_operator(cons, 1)
    thetas = cons.lambdas
    return L, cons, op, principal_log(op), thetas, op.band


def _power_route(route, cons, op):
    """(band of every fiber block, n -> T^n of every fiber) as the named command takes it.

    verify measures fiber 1 and stands it for both fibers; fiber 2 is its rescaling."""
    if route == "construct":
        return [np.ones(cons.levels - 1)], lambda n: unit_band_powers(cons.lambdas, [n])
    if route == "verify":
        two = assemble_operator(cons, 2)
        bands = [np.diagonal(fiber_rescaled(two.shift_part(), i), offset=1) for i in (1, 2)]
        return bands, lambda n: [
            fiber_rescaled(unit_band_powers(cons.lambdas, [n])[0] * two.products, i) for i in (1, 2)
        ]
    return [op.band], lambda n: [operator_power(op, n)]


def _check_integer_powers(ladder, route):
    L, cons, op, _, thetas, _ = ladder
    bands, power = _power_route(route, cons, op)
    errors = []
    for k in range(1, L + 1):
        n = math.factorial(k)
        Tn = power(n)
        err = max(_err(Tn[i], oracle(thetas, band, power_value(Fraction(n))), band) for i, band in enumerate(bands))
        errors.append((n, err))
    _report(f"T^n ({route}), L = {L}", errors)
    _assert_flat(errors)


def test_integer_powers_match_oracle_at_every_rung(ladder):
    _check_integer_powers(ladder, "semigroup")


@pytest.mark.parametrize("route", ["verify", "construct"])
def test_verify_and_construct_powers_match_oracle_at_every_rung(ladder, route):
    _check_integer_powers(ladder, route)


def test_log_matches_oracle(ladder):
    L, cons, op, sg, thetas, band = ladder
    err = _err(sg.generator, oracle(thetas, band, log_value), band)
    _report(f"Log T, L = {L}", [("-", err)])
    assert err <= TOL


def test_real_times_match_oracle_at_every_rung(ladder):
    L, cons, op, sg, thetas, band = ladder
    errors = []
    for k in range(1, L + 1):
        t = math.factorial(k) + 0.5
        want = oracle(thetas, band, power_value(Fraction(t)))
        errors.append((t, max(_err(evolve(sg, [t])[0], want, band), _err(operator_power(op, t), want, band))))
    _report(f"T^t = exp(tG), L = {L}", errors)
    _assert_flat(errors)


def test_divided_differences_between_interleaved_clusters():
    # two clusters, 1/20 and 1/10, each a few 1e-9 turns wide, interleaved
    # along the diagonal: |t| * spread is far above the cluster gap at every
    # t here, so the recurrence joins each cluster's Taylor sum across the gap
    base = (Fraction(1, 20), Fraction(1, 10))
    thetas = [base[0], base[1], base[0] + Fraction(1, 10**9), base[1] + Fraction(3, 10**9), base[0] - Fraction(2, 10**9)]
    band = [0.3, 0.2, 0.25, 0.15]
    op = TruncatedOperator(tuple(thetas), band)
    sg = principal_log(op)
    assert sg.log_clusters == 2
    assert _rel(sg.generator, oracle(thetas, band, log_value)) <= TOL
    errors = []
    for j in range(7):
        n = 10**j
        err = _rel(operator_power(op, n), oracle(thetas, band, power_value(Fraction(n))))
        want = oracle(thetas, band, power_value(Fraction(n) + Fraction(1, 2)))
        err = max(err, _rel(evolve(sg, [n + 0.5])[0], want))
        errors.append((n, err))
    _report("interleaved clusters", errors)
    _assert_flat(errors)


@pytest.mark.parametrize("L", [9, 10])
def test_powers_on_triangular_exponents_match_oracle_entry_by_entry(L):
    # on n_k = 2^(k(k-1)/2) the nodes form interleaved clusters from n = 2^28 on; every
    # entry of J^n (unit band, so every band product is 1) against the oracle's divided
    # difference, which cancels more digits than 400 can hold
    seq = IndexSequence(tuple(2 ** (k * (k - 1) // 2) for k in range(1, L + 1)))
    cons = build_construction(seq, L=L, K=L, w=tuple(range(1, L + 1)))
    thetas = cons.lambdas
    errors = []
    for n, Jn in zip(seq.terms, cons.powers):
        want = oracle(thetas, [1.0] * (L - 1), power_value(Fraction(n)), dps=2500)
        err = 0.0
        for k in range(L):
            for l in range(k, L):
                if l - k > n:  # h_(n - (l - k)) = 0
                    assert Jn[k, l] == 0
                else:
                    err = max(err, float(abs(mp.mpc(Jn[k, l]) - want[k][l]) / abs(want[k][l])))
        errors.append((n, err))
    _report(f"J^n entry by entry, 2^(k(k-1)/2), L = {L}", errors)
    assert max(e for _, e in errors) <= 1e-12


def test_defective_block_matches_closed_form():
    # T = lam (I + N / lam) with N^2 = 0: T^t = lam^t (I + t N / lam), Log T = Log(lam) I + N / lam
    theta = Fraction(1, 30)
    op = TruncatedOperator((theta, theta), [0.1])
    sg = principal_log(op)
    with mp.workdps(60):
        x = _phase(theta)
        band = mp.mpf(0.1)
        log_want = [[log_value(theta), band / x], [0, log_value(theta)]]
        assert _rel(sg.generator, log_want) <= TOL
        errors = []
        for j in range(7):
            for t in (Fraction(10**j), Fraction(10**j) + Fraction(1, 2)):
                xt = _phase(t * _signed(theta))
                want = [[xt, xt * _mpf(t) * band / x], [0, xt]]
                err = _rel(operator_power(op, t), want)
                if t.denominator == 2:
                    err = max(err, _rel(evolve(sg, [float(t)])[0], want))
                errors.append((float(t), err))
    _report("defective 2 x 2", errors)
    _assert_flat(errors)


def test_band_products_below_the_double_range():
    # 1e-200 * 1e-200 underflows, so entry (1, 3) reads 0 against the oracle's 1e-400 times
    # its divided difference
    thetas = [Fraction(1, 20), Fraction(1, 20) + Fraction(1, 10**9), Fraction(1, 10)]
    band = [1e-200, 1e-200]
    op = TruncatedOperator(tuple(thetas), band)
    for n in (1, 10**3, 10**6):
        got = operator_power(op, n)
        assert np.isfinite(got).all()
        assert _rel(got, oracle(thetas, band, power_value(Fraction(n)))) <= TOL


def test_a_band_product_past_the_double_range_is_out_of_domain():
    # 1e200 * 1e200 overflows; no function of T is formed from an inf product
    thetas = [Fraction(1, 20), Fraction(1, 19), Fraction(1, 18)]
    op = TruncatedOperator(tuple(thetas), [1e200, 1e200])
    with pytest.raises(OutOfDomain, match="overflows the double range"):
        operator_power(op, 2)
    with pytest.raises(OutOfDomain, match="overflows the double range"):
        principal_log(op)


def test_singleton_clusters_take_powers_near_the_top_of_the_double_range():
    # each node is its own cluster, so each Taylor sum ends at A^1 = 0; C(n, 2), past the
    # double range from n ~ 1.9e154 on, must not meet that zero
    thetas = [Fraction(1, 20), Fraction(1, 10), Fraction(3, 20)]
    band = [0.3, 0.2]
    op = TruncatedOperator(tuple(thetas), band)
    for n in (10**155, 10**300):
        assert _rel(operator_power(op, n), oracle(thetas, band, power_value(Fraction(n)))) <= TOL


def test_a_taylor_coefficient_past_the_double_range_is_out_of_domain():
    # 1e-200 turns apart, the two nodes share a cluster at n = 10^160, whose C(n, 2) is no double
    thetas = [Fraction(1, 20), Fraction(1, 20) + Fraction(1, 10**200)]
    op = TruncatedOperator(tuple(thetas), [0.5])
    with pytest.raises(OutOfDomain, match="overflows the double range"):
        operator_power(op, 10**160)
