import math
from fractions import Fraction

import numpy as np
import pytest

import jamison.funm as funm
import jamison.semigroup as semigroup
from jamison import (
    IndexSequence,
    ShiftConstruction,
    assemble_operator,
    build_construction,
    matrix_power,
    operator_norm,
)
from jamison.construction import TruncatedOperator
from jamison.errors import (
    HorizonExceedsSequence,
    OutOfDomain,
    PreconditionViolated,
    SpectrumOutsideDomain,
)
from jamison.semigroup import (
    LOG_METHOD,
    bounded_along,
    check_lattice,
    evolve,
    generator_spectrum_check,
    lift_report,
    principal_log,
    roundtrip_error,
    unit_interval_sup,
)
from jamison.sequences import turns_to_radians, unit_point

from blocks import dense_block


@pytest.fixture(scope="module")
def factorial_setup():
    seq = IndexSequence.factorials(8)
    cons = build_construction(seq, L=8, K=8, w=(1, 2, 3, 4, 5, 6, 7, 8))
    op = assemble_operator(cons, 2)
    return seq, op, principal_log(op)


@pytest.fixture(scope="module")
def separated_setup():
    cons = ShiftConstruction(
        IndexSequence.factorials(6),
        [Fraction(1, 23), Fraction(1, 31), Fraction(1, 41), Fraction(1, 53), Fraction(2, 23)],
        (1.0, 2.0, 3.0, 4.0, 5.0),
        horizon=6,
    )
    op = assemble_operator(cons, 2)
    return op, principal_log(op)


# --- principal log ----------------------------------------------------------


def _exact_operator(thetas, band=None):
    """One fiber block on exact angles (turns), with the given band or a zero one."""
    return TruncatedOperator(tuple(thetas), np.zeros(len(thetas) - 1) if band is None else band)


def test_log_of_identity_is_zero():
    sg = principal_log(_exact_operator((Fraction(0),) * 3))
    assert np.max(np.abs(sg.generator)) == 0.0
    assert sg.log_clusters == 1


def test_log_of_diagonal_phases():
    thetas = (Fraction(1, 20), Fraction(-1, 8), Fraction(1, 6))
    sg = principal_log(_exact_operator(thetas))
    G = sg.generator
    assert np.max(np.abs(np.diag(G) - [1j * turns_to_radians(t) for t in thetas])) <= 1e-14
    off = G[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) == 0.0


def test_log_rejects_left_halfplane_spectrum():
    with pytest.raises(SpectrumOutsideDomain):
        principal_log(_exact_operator((Fraction(3, 10), Fraction(1, 20))))


@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_log_decides_the_domain_on_the_exact_angle(sign):
    # 1e-20 turns past 1/6 the real part is below 1/2, though the rounded
    # diagonal reads 0.5000000000000001
    theta = sign * (Fraction(1, 6) + Fraction(1, 10**20))
    op = _exact_operator((Fraction(1, 20), theta))
    assert dense_block(op)[1, 1].real > 0.5
    with pytest.raises(SpectrumOutsideDomain):
        principal_log(op)


def test_defective_block_is_one_cluster():
    # Log(lam (I + N/lam)) = Log(lam) I + N/lam exactly, since N^2 = 0
    theta = Fraction(1, 30)
    lam = unit_point(theta)
    sg = principal_log(_exact_operator((theta, theta), [0.1]))
    assert sg.log_clusters == 1
    log_lam = 1j * turns_to_radians(theta)
    want = np.array([[log_lam, 0.1 / lam], [0.0, log_lam]])
    assert np.max(np.abs(sg.generator - want)) <= 1e-16
    assert sg.roundtrip_error <= 1e-15


def test_separated_spectrum_takes_the_divided_difference_step(separated_setup):
    op, sg = separated_setup
    # 2/23 sits 0.27 rad above the other four, which chain within 0.1 rad
    assert sg.log_clusters == 2
    assert sg.roundtrip_error <= 1e-14


def test_clustered_spectrum_is_one_taylor_cluster(factorial_setup):
    _, op, sg = factorial_setup
    # level gaps collapse far below float resolution; one exact-phase cluster
    assert sg.log_clusters == 1
    assert sg.roundtrip_error <= 1e-15


# --- evolution ---------------------------------------------------------------


def test_evolve_at_zero_one_two(factorial_setup):
    _, op, sg = factorial_setup
    E0, E1, E2 = evolve(sg, [0.0, 1, 2])
    assert np.allclose(E0, np.eye(8), atol=1e-15)
    T = dense_block(op)
    assert operator_norm(E1 - T, 2) <= 1e-10 * operator_norm(T, 2)
    T2 = T @ T
    assert operator_norm(E2 - T2, 2) <= 1e-9 * operator_norm(T2, 2)


def test_evolve_rejects_bad_times(factorial_setup):
    _, _, sg = factorial_setup
    # one bad time refuses the whole batch
    with pytest.raises(OutOfDomain):
        evolve(sg, [1.0, -0.5])
    with pytest.raises(OutOfDomain):
        evolve(sg, [math.inf])


def test_semigroup_law(factorial_setup):
    _, _, sg = factorial_setup
    rng = np.random.default_rng(3)
    for _ in range(8):
        s, t = rng.uniform(0.0, 3.0, 2)
        lhs, at_s, at_t = evolve(sg, [s + t, s, t])
        rhs = at_s @ at_t
        assert operator_norm(lhs - rhs, 2) <= 1e-9 * (1.0 + operator_norm(lhs, 2))


def test_strong_continuity_proxy(factorial_setup):
    _, _, sg = factorial_setup
    norm_G = operator_norm(sg.generator, 2)
    last = math.inf
    hs = (1e-1, 1e-2, 1e-3, 1e-4)
    for h, E in zip(hs, evolve(sg, hs)):
        dist = operator_norm(E - np.eye(8), 2)
        assert dist <= norm_G * h * 1.01
        assert dist < last
        last = dist


def test_spectral_mapping_at_one(factorial_setup):
    _, op, sg = factorial_setup
    got = sorted(np.linalg.eigvals(evolve(sg, [1.0])[0]), key=lambda z: z.imag)
    want = sorted(np.diag(dense_block(op)), key=lambda z: z.imag)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9


# --- lattice consistency -----------------------------------------------------


def test_lattice_agreement(factorial_setup):
    seq, _, sg = factorial_setup
    rep = check_lattice(sg, seq, 8)
    assert rep.all_ok
    assert max(r.rel_err for r in rep.rows) <= 1e-10
    assert [r.n_k for r in rep.rows] == list(seq.terms)


def test_lattice_detects_perturbed_generator(factorial_setup):
    # evolve forms exp(tG) from T, so the roundtrip is the check that reads the log
    _, op, sg = factorial_setup
    rng = np.random.default_rng(7)
    noise = 1e-3 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    assert roundtrip_error(op, sg.unit_log + np.triu(noise, 1)) > 1e-8


def test_lattice_sees_errors_deep_in_the_band(factorial_setup):
    # band entries past level 1 are ~1e-16 and below, so an error there is
    # invisible next to ||T|| ~ 1; the roundtrip also measures the divided differences
    _, op, sg = factorial_setup
    doubled = sg.unit_log + np.triu(sg.unit_log, 1) * (np.arange(8) >= 1)[:, None]
    one_percent = np.array(sg.unit_log)
    one_percent[5, 6] *= 1.01
    for unit_log, least in ((doubled, 0.9), (one_percent, 5e-3)):
        assert roundtrip_error(op, unit_log) >= least


def test_lattice_detects_a_perturbed_log_series_coefficient(factorial_setup, monkeypatch):
    # evolve's clusters are exp of the log series, T^n the binomial series: one wrong
    # log coefficient separates the two routes
    seq, op, _ = factorial_setup
    honest = funm.Log.taylor

    def perturbed(self, sigma):
        for j, c in enumerate(honest(self, sigma)):
            yield c * 1.001 if j == 3 else c

    monkeypatch.setattr(funm.Log, "taylor", perturbed)
    rep = check_lattice(principal_log(op), seq, 8)
    assert not rep.all_ok


def _one_percent_off_in_entry_12(monkeypatch):
    """Entry (1, 2) of the exp route's divided differences, 1 % too large at every time of the batch."""
    honest = semigroup.unit_evolve

    def shallow_error(sg, times):
        out = np.array(honest(sg, times))
        out[:, 0, 1] *= 1.01
        return out

    monkeypatch.setattr(semigroup, "unit_evolve", shallow_error)


def test_lattice_sees_errors_near_the_diagonal(factorial_setup, monkeypatch):
    # among the divided differences the corner (1, L), about C(n, L-1),
    # outweighs the first band row at large n; the measure on T^n still sees it
    seq, _, sg = factorial_setup
    _one_percent_off_in_entry_12(monkeypatch)
    rep = check_lattice(sg, seq, 8)
    assert rep.rows[-1].rel_err >= 1e-5
    assert not any(r.ok for r in rep.rows)


_UNDERFLOW_THETAS = (Fraction(1, 20), Fraction(1, 20) + Fraction(1, 10**9), Fraction(1, 10))


def test_lattice_on_band_products_below_the_double_range():
    # 1e-200 * 1e-200 underflows: that entry of T^n reads 0 on both routes, and
    # the divided differences are compared as they are, with no product divided by
    op = _exact_operator(_UNDERFLOW_THETAS, [1e-200, 1e-200])
    rep = check_lattice(principal_log(op), IndexSequence((1, 10**3, 10**6)), 3)
    assert rep.all_ok
    assert all(np.isfinite(r.rel_err) for r in rep.rows)


def test_lattice_sees_a_band_error_while_a_product_underflows(monkeypatch):
    # entry (1, 2) of T^n is 1e-200 times its divided difference, so next to
    # ||T^n|| ~ 1 a 1 % error there is 1e-202; the divided differences show it,
    # although the product over (1, 3) underflows to 0
    op = _exact_operator(_UNDERFLOW_THETAS, [1e-200, 1e-200])
    _one_percent_off_in_entry_12(monkeypatch)
    rep = check_lattice(principal_log(op), IndexSequence((1, 10**3, 10**6)), 3)
    assert rep.rows[0].rel_err >= 5e-3
    assert not rep.all_ok


def test_lattice_validation(factorial_setup):
    seq, _, sg = factorial_setup
    with pytest.raises(HorizonExceedsSequence):
        check_lattice(sg, seq, 9)
    real = IndexSequence((1.0, 2.5), "real")
    with pytest.raises(PreconditionViolated):
        check_lattice(sg, real, 2)


# --- boundedness along real sequences ---------------------------------------


def test_bounded_along_half_offsets(factorial_setup):
    seq, _, sg = factorial_setup
    half = IndexSequence((1.0,) + tuple(float(n) + 0.5 for n in seq.terms[1:]), "real")
    rep = bounded_along(sg, half, 8)
    assert rep.all_ok
    assert rep.grid_sup <= rep.certified_sup
    assert rep.sup_along <= rep.certified_sup * max(r.norm_at_floor for r in rep.rows)
    with pytest.raises(HorizonExceedsSequence):
        bounded_along(sg, half, 9)


def test_bounded_along_integer_times_is_trivial(factorial_setup):
    seq, _, sg = factorial_setup
    ints = IndexSequence(tuple(float(n) for n in seq.terms[:5]), "real")
    rep = bounded_along(sg, ints, 5)
    assert rep.all_ok
    for r in rep.rows:
        assert r.norm_at_t == pytest.approx(r.norm_at_floor, rel=1e-12)


def test_half_offset_bound_with_certified_sup(factorial_setup):
    seq, _, sg = factorial_setup
    _, certified = unit_interval_sup(sg)
    for n in seq.terms:
        at_t, at_n = evolve(sg, [n + 0.5, float(n)])
        assert operator_norm(at_t, 2) <= certified * operator_norm(at_n, 2) * (1.0 + 1e-6)


# --- generator spectrum -------------------------------------------------------


def test_generator_spectrum_purely_imaginary(factorial_setup):
    _, _, sg = factorial_setup
    rep = generator_spectrum_check(sg)
    assert rep.all_ok
    assert rep.max_real_part <= 1e-9
    assert rep.max_deviation <= 1e-9
    assert len(rep.rows) == 8


def test_generator_spectrum_on_separated(separated_setup):
    _, sg = separated_setup
    rep = generator_spectrum_check(sg)
    assert rep.all_ok


def test_spectrum_expects_the_exact_angles_in_radians(factorial_setup):
    # no angle is read back from a rounded diagonal: each expected value is 2 pi theta
    # of a signed exact angle, in their sorted order, once each
    _, op, sg = factorial_setup
    signed = sorted((theta + Fraction(1, 2)) % 1 - Fraction(1, 2) for theta in op.thetas)
    rows = generator_spectrum_check(sg).rows
    assert [r.expected_imag for r in rows] == [turns_to_radians(theta) for theta in signed]


def test_zero_phase_level_gives_zero_eigenvalue():
    sg = principal_log(_exact_operator((Fraction(0), Fraction(1, 60))))
    rep = generator_spectrum_check(sg)
    assert rep.rows[0].expected_imag == 0.0
    assert abs(complex(rep.rows[0].real_part, rep.rows[0].imag_part)) <= 1e-15


# --- shift norm and report -----------------------------------------------------


def test_shift_part_norm_below_one_third(factorial_setup):
    _, op, _ = factorial_setup
    assert operator_norm(op.shift_part(), 2) < 1.0 / 3.0


def test_a_lift_builds_one_node_set(factorial_setup, monkeypatch):
    # the operator owns its node set: the log, its roundtrip, the lattice, the
    # spectrum and every evolve read the same one
    seq, op, _ = factorial_setup
    built = []
    honest = funm.NodeSet.__init__

    def counting(self, row):
        built.append(row)
        honest(self, row)

    monkeypatch.setattr(funm.NodeSet, "__init__", counting)
    fresh = TruncatedOperator(op.thetas, op.band, op.fibers)
    sg = principal_log(fresh)
    lift_report(sg, seq, 8)
    half = IndexSequence((1.0,) + tuple(float(n) + 0.5 for n in seq.terms[1:]), "real")
    bounded_along(sg, half, 8)
    assert len(built) == 1


def test_lift_report_bundle(factorial_setup):
    seq, _, sg = factorial_setup
    rep = lift_report(sg, seq, 8)
    assert rep["lattice"]["all_ok"]
    assert rep["spectrum"]["all_ok"]
    assert rep["shift_norm_below_third"]
    assert rep["semigroup"]["method"] == LOG_METHOD
    assert rep["semigroup"]["log_clusters"] == 1
    assert "eig_cond" not in rep["semigroup"]
    assert len(list(sg.generator_csv_rows())) == 8 * 8
