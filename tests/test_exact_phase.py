"""The exact-phase kernel for T^n, Log T and T^t against a high-precision oracle.

The oracle is Opitz's formula for an upper-bidiagonal block: entry (k, l) of
f(T) is the band product alpha_k ... alpha_{l-1} times the divided difference
f[x_k, ..., x_l] over the nodes x = e^(2 pi i theta).  It shares nothing with
the kernel's Taylor/Parlett route except the exact angles.  Divided
differences over the construction's nearly coincident nodes (gaps down to
1e-148 turns at L = 10) cancel about 300 digits, so the oracle runs at
ORACLE_DPS digits and checks itself against a run 60 digits finer.

Run with -s to see the error per rung.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from jamison import IndexSequence, assemble_operator, build_construction
from jamison.construction import TruncatedOperator
from jamison.semigroup import evolve, operator_power, principal_log

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


def _rel(got, want) -> float:
    """Relative 1-norm distance, evaluated at 100 digits."""
    with mp.workdps(100):
        L = len(want)
        diff = max(sum(abs(mp.mpc(got[k][l]) - want[k][l]) for k in range(L)) for l in range(L))
        size = max(sum(abs(want[k][l]) for k in range(L)) for l in range(L))
        return float(diff / size)


def oracle(thetas, band, value):
    """f(T) from the exact angles and the (double) band, checked to 60 digits."""
    band = [mp.mpf(float(a)) for a in band]
    coarse = _opitz(thetas, band, value, ORACLE_DPS)
    fine = _opitz(thetas, band, value, ORACLE_DPS + 60)
    assert _rel(coarse, fine) <= 1e-60
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
    op = assemble_operator(cons, L, 1)
    thetas = [p.theta for p in cons.lambdas]
    band = np.diagonal(op.blocks[0], offset=1).real
    return L, op, principal_log(op), thetas, band


def test_integer_powers_match_oracle_at_every_rung(ladder):
    L, op, _, thetas, band = ladder
    errors = []
    for k in range(1, L + 1):
        n = math.factorial(k)
        errors.append((n, _rel(operator_power(op, n)[0], oracle(thetas, band, power_value(Fraction(n))))))
    _report(f"T^n, L = {L}", errors)
    _assert_flat(errors)


def test_log_matches_oracle(ladder):
    L, op, sg, thetas, band = ladder
    err = _rel(sg.generator[0], oracle(thetas, band, log_value))
    _report(f"Log T, L = {L}", [("-", err)])
    assert err <= TOL


def test_real_times_match_oracle_at_every_rung(ladder):
    L, op, sg, thetas, band = ladder
    errors = []
    for k in range(1, L + 1):
        t = math.factorial(k) + 0.5
        want = oracle(thetas, band, power_value(Fraction(t)))
        errors.append((t, max(_rel(evolve(sg, t)[0], want), _rel(operator_power(op, t)[0], want))))
    _report(f"T^t = exp(tG), L = {L}", errors)
    _assert_flat(errors)


def test_parlett_step_between_interleaved_clusters():
    # two clusters, 1/20 and 1/10, each a few 1e-9 turns wide, interleaved
    # along the diagonal: |t| * spread is far above the cluster gap at every
    # t here, so rotations bring each cluster together and Parlett joins them
    base = (Fraction(1, 20), Fraction(1, 10))
    thetas = [base[0], base[1], base[0] + Fraction(1, 10**9), base[1] + Fraction(3, 10**9), base[0] - Fraction(2, 10**9)]
    band = [0.3, 0.2, 0.25, 0.15]
    lams = [complex(mp.expjpi(2 * _mpf(t))) for t in thetas]
    op = TruncatedOperator((np.diag(lams) + np.diag(band, k=1))[None], tuple(thetas))
    sg = principal_log(op)
    assert sg.log_clusters == 2
    assert _rel(sg.generator[0], oracle(thetas, band, log_value)) <= TOL
    errors = []
    for j in range(7):
        n = 10**j
        err = _rel(operator_power(op, n)[0], oracle(thetas, band, power_value(Fraction(n))))
        want = oracle(thetas, band, power_value(Fraction(n) + Fraction(1, 2)))
        err = max(err, _rel(evolve(sg, n + 0.5)[0], want))
        errors.append((n, err))
    _report("interleaved clusters", errors)
    _assert_flat(errors)


def test_defective_block_matches_closed_form():
    # T = lam (I + N / lam) with N^2 = 0: T^t = lam^t (I + t N / lam), Log T = Log(lam) I + N / lam
    lam = np.exp(0.2j)
    op = TruncatedOperator(np.array([[lam, 0.1], [0.0, lam]])[None])
    theta = op.exact_angles()[0][0]
    sg = principal_log(op)
    with mp.workdps(60):
        x = _phase(theta)
        band = mp.mpf(0.1)
        log_want = [[log_value(theta), band / x], [0, log_value(theta)]]
        assert _rel(sg.generator[0], log_want) <= TOL
        errors = []
        for j in range(7):
            for t in (Fraction(10**j), Fraction(10**j) + Fraction(1, 2)):
                xt = _phase(t * _signed(theta))
                want = [[xt, xt * _mpf(t) * band / x], [0, xt]]
                err = _rel(operator_power(op, t)[0], want)
                if t.denominator == 2:
                    err = max(err, _rel(evolve(sg, float(t))[0], want))
                errors.append((float(t), err))
    _report("defective 2 x 2", errors)
    _assert_flat(errors)
