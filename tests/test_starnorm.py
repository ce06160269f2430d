import cmath
import math
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, expi

from jamison import starnorm
from jamison.errors import ConfigInvalid, HorizonExceedsSequence
from jamison.sequences import IndexSequence, turns_to_radians
from jamison.starnorm import (
    BEAM_WIDTH,
    EI_ASYMPTOTIC_FROM,
    ROOT_HALF_PI,
    ExpSpan,
    base_norm,
    dj_bound_check,
    dj_bound_checks,
    eigenfield_modulus,
    star_norm,
    translate,
    verify_translation_bound,
    _abs_difference,
    _gram,
    _multiset_maxima,
    _quadratic_norm,
    _sine_integral,
    _tuple_count,
)


@pytest.fixture(scope="module")
def factorial_seq():
    return IndexSequence.factorials(8)


# --- base norm -----------------------------------------------------------------


def test_single_exponential_norm_is_root_half_pi():
    rng = np.random.default_rng(1)
    for eta in rng.uniform(-40.0, 40.0, 50):
        assert base_norm(ExpSpan(((1.0, eta),))) == ROOT_HALF_PI


def test_two_term_difference_closed_form_vs_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(100):
        eta, xi = rng.uniform(-8.0, 8.0, 2)
        if eta == xi:
            continue
        got_sq = base_norm(ExpSpan(((1.0, eta), (-1.0, xi)))) ** 2
        assert got_sq == pytest.approx(math.pi * (1.0 - math.exp(-abs(eta - xi))), abs=1e-12)
        # independent oracle: pi - 2 * quadrature of the cosine cross term
        cos_part, _ = quad(
            lambda t: 1.0 / (1.0 + t * t), 0.0, np.inf,
            weight="cos", wvar=abs(eta - xi), epsabs=1e-11, epsrel=0.0,
        )
        assert got_sq == pytest.approx(math.pi - 2.0 * cos_part, abs=1e-8)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("terms", [
    ((1.0, 0.7), (2.0, 1.9)),  # real cross product: the closed form
    ((1.0, 0.7), (2.0j, 1.9)),  # complex cross product: the Gram route
    ((1.0, 0.7), (2.0, 1.9), (-0.5 + 0.5j, -2.4)),
])
def test_base_norm_scales_coefficients_past_the_square_range(scale, terms):
    # 1e200 squares to inf and 1e-200 to 0.0; the norm is homogeneous in its coefficients
    got = base_norm(ExpSpan(tuple((c * scale, eta) for c, eta in terms)))
    assert got == pytest.approx(scale * base_norm(ExpSpan(terms)), rel=1e-14)


def test_equal_frequency_difference_is_zero():
    v = ExpSpan(((1.0, 0.7), (-1.0, 0.7)))
    assert v.is_zero()
    assert base_norm(v) == 0.0


def test_complex_span_matches_oscillatory_gram_oracle():
    terms = ((1.2 + 0.7j, 0.9), (-0.4 + 0.3j, 2.1), (0.8 - 0.5j, -1.3))
    got = base_norm(ExpSpan(terms)) ** 2
    acc = 0.0
    for c1, e1 in terms:
        for c2, e2 in terms:
            a = e1 - e2
            re = 0.5 * math.pi * math.exp(-abs(a))
            if a != 0.0:
                im = float(
                    mpmath.quadosc(
                        lambda t: mpmath.sin(abs(a) * t) / (1 + t * t),
                        [0, mpmath.inf], omega=abs(a),
                    )
                )
                im = math.copysign(im, a)
            else:
                im = 0.0
            acc += (complex(c1) * complex(c2).conjugate() * complex(re, im)).real
    assert got == pytest.approx(acc, abs=1e-10)


def test_sine_integral_oracles():
    # exponential-integral closed form, valid for a > 0
    for a in (0.05, 0.5, 1.0, 3.7, 20.0):
        closed = 0.5 * (math.exp(-a) * expi(a) + math.exp(a) * exp1(a))
        assert _sine_integral(a) == pytest.approx(closed, abs=1e-12)
    for a in (0.037, 1.0, 5.5):
        osc = float(
            mpmath.quadosc(lambda t: mpmath.sin(a * t) / (1 + t * t), [0, mpmath.inf], omega=a)
        )
        assert _sine_integral(a) == pytest.approx(osc, abs=1e-12)
    assert _sine_integral(-1.0) == -_sine_integral(1.0)
    assert _sine_integral(0.0) == 0.0


def _sine_integral_mp(a, digits=30):
    """(e^-a Ei(a) + e^a E1(a)) / 2 with `digits` digits left after its cancellation at small a."""
    with mpmath.workdps(digits + max(0, -math.floor(math.log10(a)))):
        x = mpmath.mpf(a)
        return float((mpmath.exp(-x) * mpmath.ei(x) + mpmath.exp(x) * mpmath.e1(x)) / 2)


def test_sine_integral_matches_scipy_exponential_integrals():
    grid = np.logspace(-6, 3, 241)
    # e^a overflows a double from a ~ 709.8 on, so the scipy form stops below it
    scipy_grid = grid[grid <= 700.0]
    assert len(scipy_grid) >= 200
    for a in scipy_grid:
        closed = 0.5 * (math.exp(-a) * expi(a) + math.exp(a) * exp1(a))
        assert abs(_sine_integral(a) - closed) <= 1e-13
    for a in grid[grid > 700.0]:
        assert abs(_sine_integral(a) - _sine_integral_mp(a)) <= 1e-13


@pytest.mark.parametrize("switch", [1.0, EI_ASYMPTOTIC_FROM])
def test_sine_integral_across_branch_switches(switch):
    below, above = math.nextafter(switch, 0.0), math.nextafter(switch, math.inf)
    for a in (0.5 * switch, switch - 1e-6, below, switch, above, switch + 1e-6, 2.0 * switch):
        assert _sine_integral(a) == pytest.approx(_sine_integral_mp(a), rel=1e-14, abs=0.0)


def test_sine_integral_odd_and_finite_at_the_extremes():
    assert _sine_integral(0.0) == 0.0
    for a in (5e-324, 1e-300, 1e-6, 0.3, 1.0, 7.0, EI_ASYMPTOTIC_FROM, 1e3, 1e300):
        s = _sine_integral(a)
        assert math.isfinite(s) and s > 0.0
        assert _sine_integral(-a) == -s
    # S(a) ~ a (1 - gamma - ln a) at 0 and ~ 1/a at infinity
    tiny = 5e-324
    assert _sine_integral(tiny) == pytest.approx(tiny * (1.0 - np.euler_gamma - math.log(tiny)), rel=1e-2)
    assert _sine_integral(1e300) == pytest.approx(1e-300, rel=1e-15)


def test_span_canonicalization():
    v = ExpSpan(((1.0, 2.0), (0.5j, 1.0), (2.0, 2.0), (-0.5j, 1.0)))
    assert v.terms == ((3.0 + 0.0j, 2.0),)
    assert ExpSpan(()).is_zero()


def test_angle_unit_conversions():
    assert turns_to_radians(0.5) == math.pi


# --- translation ----------------------------------------------------------------


def test_translate_identity_and_periodicity():
    v = ExpSpan(((0.3 - 1.1j, 2.5), (0.7, -0.4)))
    assert translate(v, 0.0).terms == v.terms
    w = ExpSpan(((1.0, 1.3),))
    back = translate(w, 2.0 * math.pi / 1.3)
    assert back.coefficients[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_translate_rotates_coefficients_exactly():
    v = ExpSpan(((0.3 - 1.1j, 2.5), (0.7, -0.4)))
    got = translate(v, 1.0)
    for (c_got, eta), (c_orig, _) in zip(got.terms, v.terms):
        assert c_got == c_orig * cmath.exp(1j * eta)
    moduli = np.abs(got.coefficients) - np.abs(v.coefficients)
    assert np.max(np.abs(moduli)) <= 1e-12


# --- star norm -------------------------------------------------------------------


def test_star_norm_of_zero_span(factorial_seq):
    s = star_norm(ExpSpan(()), factorial_seq, 3, 6)
    assert s.value == 0.0 and s.base == 0.0


def test_star_norm_single_constant_in_frequency(factorial_seq):
    rng = np.random.default_rng(5)
    for eta in rng.uniform(-30.0, 30.0, 50):
        s = star_norm(ExpSpan(((1.0, eta),)), factorial_seq, 8, 8)
        assert s.mode == "exact-factorized"
        assert abs(s.value - ROOT_HALF_PI) <= 1e-12


def test_star_norm_monotone_in_truncation(factorial_seq):
    d = ExpSpan(((1.0, turns_to_radians(0.123)), (-1.0, turns_to_radians(0.125))))
    for J in range(3):
        a = star_norm(d, factorial_seq, J, 6).value
        b = star_norm(d, factorial_seq, J + 1, 6).value
        assert a <= b + 1e-15
    for K in range(1, 6):
        a = star_norm(d, factorial_seq, 3, K).value
        b = star_norm(d, factorial_seq, 3, K + 1).value
        assert a <= b + 1e-15


def test_star_norm_brackets_base_and_upper(factorial_seq):
    d = ExpSpan(((1.0, 0.31), (-1.0, 0.37)))
    s = star_norm(d, factorial_seq, 3, 6)
    assert s.mode == "searched-lower-bound"
    assert s.search == "exhaustive"
    assert s.base <= s.value <= s.upper + 1e-15


def test_star_norm_beam_is_deterministic_lower_estimate(factorial_seq, monkeypatch):
    d = ExpSpan(((1.0, 0.31), (-1.0, 0.37)))
    full = star_norm(d, factorial_seq, 3, 6)
    monkeypatch.setattr(starnorm, "EXHAUSTIVE_LIMIT", 10)
    beam1 = star_norm(d, factorial_seq, 3, 6)
    beam2 = star_norm(d, factorial_seq, 3, 6)
    assert beam1.search == "beam" and full.search == "exhaustive"
    assert beam1.value == beam2.value
    assert beam1.value <= full.value + 1e-15


def test_tuple_count_matches_the_sum_over_orders():
    for J in range(8):
        for K in range(8):
            assert _tuple_count(J, K) == sum(math.comb(K + j, j + 1) for j in range(J + 1))


def test_star_norm_validation(factorial_seq):
    v = ExpSpan(((1.0, 1.0),))
    with pytest.raises(HorizonExceedsSequence):
        star_norm(v, factorial_seq, 2, 9)
    with pytest.raises(ConfigInvalid):
        star_norm(v, factorial_seq, -1, 3)


# --- multiset search kernel ------------------------------------------------------------


def _score_one(score, row):
    return float(score(row[None])[0])


def _batched(scores):
    """Kernel score from one (N, M) -> N score per item."""
    def score(rows, items):
        return np.array([f(r) for f, r in zip(scores[items], rows)])
    return score


def _enumerated_maxima(start, factors, score, orders):
    """Brute force: every index multiset of each order, one row at a time."""
    K = factors.shape[1]
    maxima = []
    for j in range(orders):
        best = 0.0
        for combo in combinations_with_replacement(range(K), j + 1):
            row = start
            for k in combo:
                row = row * factors[:, k]
            best = max(best, _score_one(score, row))
        maxima.append(best)
    return maxima


def _restart_beam_maxima(start, factors, score, orders, width):
    """Beam that restarts from the singletons for every order, sorted by (-score, last index)."""
    K = factors.shape[1]
    maxima = []
    for j in range(orders):
        frontier = [(k, start * factors[:, k]) for k in range(K)]
        for _ in range(j):
            kept = sorted(frontier, key=lambda item: (-_score_one(score, item[1]), item[0]))[:width]
            frontier = [(k2, row * factors[:, k2]) for k, row in kept for k2 in range(k, K)]
        maxima.append(max((_score_one(score, row) for _, row in frontier), default=0.0))
    return maxima


# Gaussian half-integers give exactly tied scores besides generic ones
_HALVES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
_COMPLEX = st.one_of(
    st.builds(complex, _HALVES, _HALVES),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    M=st.sampled_from([2, 3]),
    K=st.integers(0, 6),
    B=st.integers(1, 3),
    orders=st.integers(1, 4),
    width=st.integers(1, 8),
    gram=st.booleans(),
    data=st.data(),
)
def test_multiset_maxima_match_references(M, K, B, orders, width, gram, data):
    # B items walked together, each with its own start, factors and score
    starts, factor_sets, scores = [], [], []
    for _ in range(B):
        starts.append(np.array(data.draw(st.lists(_COMPLEX, min_size=M, max_size=M)), dtype=complex))
        flat = data.draw(st.lists(_COMPLEX, min_size=M * K, max_size=M * K))
        factor_sets.append(np.array(flat, dtype=complex).reshape(M, K))
        if gram:
            freqs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=M, max_size=M, unique=True))
            scores.append(lambda rows, G=_gram(tuple(freqs)): _quadratic_norm(rows, G))
        else:
            scores.append(_abs_difference)
    start, factors = np.array(starts), np.array(factor_sets)
    exhaustive = _multiset_maxima(start, factors, _batched(scores), orders, None)
    beam = _multiset_maxima(start, factors, _batched(scores), orders, width)
    for b in range(B):
        assert exhaustive[b].tolist() == _enumerated_maxima(starts[b], factor_sets[b], scores[b], orders)
        assert beam[b].tolist() == _restart_beam_maxima(starts[b], factor_sets[b], scores[b], orders, width)
    assert np.all(beam[:, 0] == exhaustive[:, 0])
    assert np.all(beam <= exhaustive)


def test_beam_breaks_score_ties_by_last_index():
    # equal scores at the width cut: keeping the lower last index extends
    # further, and ordering ties by frontier position instead reads 5.0
    factors = np.array([
        [-0.5 - 0.5j, -0.5 + 0.5j, 1.0, -1j, -0.5 + 0.5j, 1j],
        [1.0 + 0.5j, 0.5 - 1j, -1.0 - 1j, -1.0 + 1j, 0.5 - 1j, 1.0 - 1j],
    ])
    start = np.ones(2, dtype=complex)
    beam = _multiset_maxima(start[None], factors[None], _abs_difference, 4, 3)[0]
    assert beam.tolist() == _restart_beam_maxima(start, factors, _abs_difference, 4, 3)
    assert beam[3] == pytest.approx(math.sqrt(12.5))


def test_beam_keeps_zero_score_rows_ahead_of_repeated_multisets():
    # {1, 1} scores |1 - (-1)^2| = 0 yet {1, 1, 1} scores 2; with room for
    # every valid row, the padded child (1, 0) that repeats {0, 1} must not
    # take the place of {1, 1}
    factors = np.array([[[1.0, 1.0], [0.5, -1.0]]], dtype=complex)
    start = np.ones((1, 2), dtype=complex)
    beam = _multiset_maxima(start, factors, _abs_difference, 3, 3)[0]
    assert beam.tolist() == _restart_beam_maxima(start[0], factors[0], _abs_difference, 3, 3)
    assert beam.tolist() == _enumerated_maxima(start[0], factors[0], _abs_difference, 3)
    assert beam[2] == 2.0


def test_quadratic_norm_rows_match_single_vectors():
    rng = np.random.default_rng(11)
    G = _gram((0.3, -1.1, 2.4))
    rows = rng.normal(size=(257, 3)) + 1j * rng.normal(size=(257, 3))
    batch = _quadratic_norm(rows, G)
    assert batch.tolist() == [float(_quadratic_norm(row, G)) for row in rows]
    for row, got in zip(rows, batch):
        assert got == pytest.approx(math.sqrt((np.conj(row) @ G @ row).real), rel=1e-14)


_ANGLES = st.floats(0.01, 2.0 * math.pi - 0.01)


@settings(max_examples=40, deadline=None)
@given(
    M=st.sampled_from([2, 3]),
    K=st.integers(1, 6),
    J=st.integers(0, 30),
    width=st.integers(1, 8),
    data=st.data(),
)
def test_scaled_factors_give_the_weighted_maxima(M, K, J, width, data):
    # star_norm searches factors / 4: a power-of-two scaling, so wherever
    # nothing under- or overflows it equals max_j 4^-(j+1) m_j bit for bit
    starts = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    start = np.array(data.draw(st.lists(starts, min_size=M, max_size=M)), dtype=complex)
    angles = data.draw(st.lists(_ANGLES, min_size=M * K, max_size=M * K))
    factors = np.exp(1j * np.array(angles)).reshape(M, K) - 1.0
    freqs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=M, max_size=M, unique=True))
    G = _gram(tuple(freqs))
    score = _batched([lambda rows: _quadratic_norm(rows, G)])

    beam = None if J <= 3 else width
    plain = _multiset_maxima(start[None], factors[None], score, J + 1, beam)[0]
    scaled = _multiset_maxima(start[None], factors[None] / 4.0, score, J + 1, beam)[0]
    assert scaled.max() == max(4.0 ** -(j + 1) * m for j, m in enumerate(plain))


def test_multiset_walk_stops_at_an_all_zero_frontier():
    # |factor / 4| = 1/2, so every product underflows to zero by order 1076
    calls = []

    def score(rows, items):
        calls.append(rows.shape[1])
        return np.abs(rows[..., 0])

    factors = np.full((1, 1, 2), -2.0 + 0.0j) / 4.0
    maxima = _multiset_maxima(np.ones((1, 1), dtype=complex), factors, score, 5000, BEAM_WIDTH)[0]
    assert 1070 <= len(calls) <= 1080
    assert maxima[0] == 0.5 and maxima[50] == 2.0 ** -51
    assert not maxima[len(calls):].any()


def test_star_norm_stays_finite_at_large_orders(factorial_seq):
    # unscaled, the squared norms of products of modulus up to 2^(j+1)
    # overflow a double from J ~ 512 on
    d = ExpSpan(((1.0, 3.0), (-1.0, 0.2)))
    for J in (511, 600, 5000):
        s = star_norm(d, factorial_seq, J, 2)
        assert math.isfinite(s.value) and s.base <= s.value <= s.upper
    assert star_norm(d, factorial_seq, 600, 2).value == star_norm(d, factorial_seq, 20, 2).value


# --- translation bound ---------------------------------------------------------------


def test_translation_bound_single_ratio_one(factorial_seq):
    rep = verify_translation_bound(
        factorial_seq, [ExpSpan(((1.0, 0.7),))], J=2, K=6, P=6
    )
    assert rep.all_ok
    for r in rep.rows:
        assert r.asserted
        assert r.ratio == pytest.approx(1.0, rel=1e-12)


def test_translation_bound_two_term_differences(factorial_seq):
    samples = [
        ExpSpan(((1.0, 0.31), (-1.0, 0.32))),
        ExpSpan(((1.0, turns_to_radians(0.05)), (-1.0, turns_to_radians(0.050001)))),
        ExpSpan(((1.0, 1.9), (-1.0, 2.6))),
    ]
    rep = verify_translation_bound(factorial_seq, samples, J=2, K=6, P=6)
    assert rep.all_ok
    assert all(r.asserted for r in rep.rows)
    assert rep.max_ratio <= 5.0 * (1.0 + 1e-6)


def test_translation_bound_zero_and_wide_spans(factorial_seq):
    wide = ExpSpan(((1.0, 0.3), (0.5j, 0.9), (-0.25, 1.7)))
    rep = verify_translation_bound(factorial_seq, [ExpSpan(()), wide], J=2, K=6, P=4)
    assert rep.all_ok
    zero_rows = [r for r in rep.rows if r.sample == 0]
    assert all(r.ratio == 0.0 and r.ok for r in zero_rows)
    wide_rows = [r for r in rep.rows if r.sample == 1]
    assert all(not r.asserted for r in wide_rows)
    with pytest.raises(HorizonExceedsSequence):
        verify_translation_bound(factorial_seq, [wide], J=2, K=6, P=9)


# --- d_j recursion bound ----------------------------------------------------------------


def test_dj_zero_gap_gives_zeros(factorial_seq):
    rep = dj_bound_check(0.7, 0.7, factorial_seq, J=3, K=6)
    assert rep.d_zero == 0.0
    assert all(r.value == 0.0 and r.ok for r in rep.rows)


def test_dj_base_case_equality(factorial_seq):
    rep = dj_bound_check(0.5, 0.5 + 2.0 * math.pi / 720.0, factorial_seq, J=3, K=6)
    assert rep.rows[0].value == rep.d_zero
    assert rep.rows[0].bound == rep.d_zero


def test_dj_induction_bound_exhaustive(factorial_seq):
    rng = np.random.default_rng(9)
    for _ in range(10):
        eta = rng.uniform(0.0, 2.0)
        xi = eta + rng.uniform(-0.2, 0.2)
        rep = dj_bound_check(eta, xi, factorial_seq, J=3, K=6)
        assert rep.all_ok
        assert all(r.method == "exhaustive" for r in rep.rows)


def test_dj_beam_beyond_exhaustive_depth(factorial_seq):
    rep = dj_bound_check(0.5, 0.52, factorial_seq, J=5, K=6)
    assert [r.method for r in rep.rows] == ["exhaustive"] * 4 + ["beam"] * 2
    assert rep.all_ok


def test_dj_validation(factorial_seq):
    with pytest.raises(HorizonExceedsSequence):
        dj_bound_check(0.1, 0.2, factorial_seq, J=2, K=9)
    with pytest.raises(ConfigInvalid):
        dj_bound_check(0.1, 0.2, factorial_seq, J=-1, K=3)
    # (J+1) 2^J stays finite up to J = 1014 and overflows a double from 1015 on
    assert dj_bound_check(0.1, 0.2, factorial_seq, J=1014, K=1).all_ok
    with pytest.raises(ConfigInvalid):
        dj_bound_check(0.1, 0.2, factorial_seq, J=1015, K=1)


# --- eigenvector field continuity table --------------------------------------------------


def test_eigenfield_table_ratios_below_ceiling(factorial_seq):
    tab = eigenfield_modulus(factorial_seq, [0.1, 0.100001, 0.5, 3.0], J=2, K=6)
    assert tab.all_ok
    assert tab.ceiling == pytest.approx(ROOT_HALF_PI + 1.0)
    assert len(tab.rows) == 6
    assert len(tab.csv_rows()[0]) == 7


def test_eigenfield_identical_frequencies_row(factorial_seq):
    tab = eigenfield_modulus(factorial_seq, [0.4, 0.4], J=2, K=6)
    row = tab.rows[0]
    assert row.base == 0.0 and row.d_zero == 0.0 and row.star_searched == 0.0
    assert row.ratio == 0.0 and row.ok


# --- batched walks ------------------------------------------------------------------------


@pytest.mark.parametrize("frontier_rows", [None, 500])
def test_pair_batch_matches_batch_of_one_at_workload_size(monkeypatch, frontier_rows):
    # J = 6, K = 12 reaches the beam at orders 4..6; 500 rows per chunk splits
    # the batch into several chunks
    if frontier_rows is not None:
        monkeypatch.setattr(starnorm, "_FRONTIER_ROWS", frontier_rows)
    seq = IndexSequence.factorials(12)
    rng = np.random.default_rng(3)
    pairs = [tuple(np.sort(rng.uniform(0.0, 3.0, size=2))) for _ in range(24)]
    pairs.append((1.25, 1.25))
    batch = dj_bound_checks(pairs, seq, 6, 12)
    assert [r.method for r in batch[0].rows] == ["exhaustive"] * 4 + ["beam"] * 3
    for (eta, xi), report in zip(pairs, batch):
        assert report == dj_bound_check(eta, xi, seq, 6, 12)


@pytest.mark.parametrize("frontier_rows", [None, 500])
def test_field_batch_matches_batch_of_one_at_workload_size(monkeypatch, frontier_rows):
    if frontier_rows is not None:
        monkeypatch.setattr(starnorm, "_FRONTIER_ROWS", frontier_rows)
    seq = IndexSequence.factorials(12)
    freqs = sorted(np.random.default_rng(4).uniform(0.05, 3.0, size=8).tolist()) + [3.0, 3.0]
    table = eigenfield_modulus(seq, freqs, J=3, K=12)
    pairs = [(a, b) for m, a in enumerate(freqs) for b in freqs[m + 1:]]
    assert len(table.rows) == len(pairs)
    for (eta, xi), row in zip(pairs, table.rows):
        diff = ExpSpan(((1.0, eta), (-1.0, xi)))
        star = star_norm(diff, seq, 3, 12)
        assert (row.eta, row.xi, row.base) == (eta, xi, base_norm(diff))
        assert row.d_zero == dj_bound_check(eta, xi, seq, 0, 12).d_zero
        assert (row.star_searched, row.star_upper) == (star.value, star.upper)


def test_translation_batch_matches_batch_of_one(factorial_seq):
    samples = [
        ExpSpan(((1.0, 0.7),)),
        ExpSpan(((1.0, 0.7), (-1.0, 2.9))),
        ExpSpan(((1.0, 0.3), (0.5j, 1.1), (-1.0, 2.0))),
    ]
    report = verify_translation_bound(factorial_seq, samples, J=1, K=6, P=8)
    rows = iter(report.rows)
    for v in samples:
        right = star_norm(v, factorial_seq, 2, 6)
        for n_k in factorial_seq.terms:
            row = next(rows)
            assert (row.left, row.right) == (star_norm(translate(v, n_k), factorial_seq, 1, 6).value, right.value)


def test_eigenfield_needs_two_frequencies(factorial_seq):
    with pytest.raises(ConfigInvalid):
        eigenfield_modulus(factorial_seq, [0.4], J=2, K=6)
