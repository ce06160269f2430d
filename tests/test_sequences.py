import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jamison.sequences as sequences
from jamison import (
    INCONCLUSIVE,
    SEPARATED,
    VANISHING,
    IndexSequence,
    box_dimension_estimate,
    chord_distance,
    chord_torus_bounds_check,
    classify_jamison,
    d_metric,
    near_return_search,
    separation_constant,
    signed_turns,
    torus_norm,
    unit_diff,
)
from jamison.errors import (
    ConfigInvalid,
    DegenerateInput,
    EmptyHorizons,
    HorizonExceedsSequence,
    InvalidEta,
    InvalidResolution,
    OutOfDomain,
    PreconditionViolated,
)
from jamison.sequences import (
    _SCRATCH,
    _BoxSearch,
    _f_exact,
    _profile_decays,
    _separation_profile,
    chord_from_torus,
    torus_from_chord,
    unit_point,
)

FACTORIALS = IndexSequence.factorials(8)


# --- torus_norm / chord -------------------------------------------------


def test_torus_norm_values():
    assert torus_norm(0.75) == 0.25
    assert torus_norm(3.0) == 0.0
    assert torus_norm(0.5) == 0.5
    assert torus_norm(Fraction(7, 3)) == Fraction(1, 3)
    assert isinstance(torus_norm(Fraction(1, 7)), Fraction)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_torus_norm_range_and_symmetry(x):
    v = torus_norm(x)
    assert 0.0 <= v <= 0.5
    assert torus_norm(-x) == pytest.approx(v, abs=1e-9)


def test_chord_distance_values():
    assert chord_distance(Fraction(0), Fraction(1, 2)) == pytest.approx(2.0, abs=1e-15)
    assert chord_distance(Fraction(1, 4), Fraction(1, 4)) == 0.0
    assert chord_distance(Fraction(0), Fraction(1, 6)) == pytest.approx(1.0, abs=1e-15)


def test_signed_turns_is_the_half_open_representative():
    assert signed_turns(Fraction(5, 4)) == Fraction(1, 4)
    assert signed_turns(Fraction(3, 4)) == signed_turns(Fraction(-1, 4)) == Fraction(-1, 4)
    # [-1/2, 1/2): the half turn is -1/2 from either side
    assert signed_turns(Fraction(1, 2)) == signed_turns(Fraction(-1, 2)) == Fraction(-1, 2)
    assert signed_turns(Fraction(-7, 3)) == Fraction(-1, 3)


def test_unit_diff_matches_naive_subtraction():
    a, b = Fraction(1, 7), Fraction(2, 5)
    naive = unit_point(a) - unit_point(b)
    assert abs(unit_diff(a, b) - naive) < 1e-14


def test_unit_diff_keeps_relative_accuracy_for_tiny_gaps():
    delta = Fraction(1, 10 ** 40)
    a = Fraction(1, 3) + delta
    b = Fraction(1, 3)
    d = unit_diff(a, b)
    expected_mod = 2.0 * math.sin(math.pi * float(delta))
    assert abs(d) == pytest.approx(expected_mod, rel=1e-12)
    # small-gap limit: direction approaches i * e^{2 pi i b}
    direction = d / (1j * unit_point(b))
    assert direction.real == pytest.approx(abs(d), rel=1e-9)
    assert abs(direction.imag) <= abs(d) * 1e-9


_ULPS = 4 * 2.0 ** -52  # relative slack of a few ulps


@settings(max_examples=300, deadline=None)
@given(
    base=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9),
    gap=st.floats(1e-300, 0.5),
    offset=st.fractions(min_value=0, max_value=Fraction(1, 10 ** 20), max_denominator=10 ** 30),
    sign=st.sampled_from([1, -1]),
)
@example(base=Fraction(1, 3), gap=0.5, offset=Fraction(0), sign=1)
@example(base=Fraction(0), gap=1e-300, offset=Fraction(0), sign=-1)
def test_circle_boundary_against_a_50_digit_chord(base, gap, offset, sign):
    # the exact gap d is a double plus a non-dyadic offset; chord_distance,
    # |unit_diff| and the chord inverse keep their relative accuracy at every scale
    d = min(Fraction(gap) + offset, Fraction(1, 2))
    a, b = base + sign * d, base
    with mp.workdps(50):
        want = 2 * mp.sin(mp.pi * mp.mpf(d.numerator) / d.denominator)
        assert abs(chord_distance(a, b) - want) <= _ULPS * want
        assert abs(abs(unit_diff(a, b)) - want) <= _ULPS * want
    theta = float(d)
    if theta <= 0.25:  # asin is well conditioned there
        assert abs(torus_from_chord(chord_from_torus(theta)) - theta) <= _ULPS * theta


_DIGITS80 = st.integers(1, 10 ** 80)
_REAL = IndexSequence((1.0, 1.5, 2.25, 3.7), "real")  # a^t at a real power reads the angle in [0, 1)


@settings(max_examples=200, deadline=None)
@given(
    a=st.builds(Fraction, st.integers(-(10 ** 81), 10 ** 81), _DIGITS80),
    b=st.builds(Fraction, st.integers(-(10 ** 81), 10 ** 81), _DIGITS80),
    m=st.integers(-(10 ** 6), 10 ** 6),
    n=st.integers(-(10 ** 6), 10 ** 6),
)
@example(a=Fraction(1, 2), b=Fraction(0), m=-1, n=0)
@example(a=Fraction(-1, 3), b=Fraction(7, 3), m=0, n=-3)
def test_angle_functions_are_periodic_to_the_bit(a, b, m, n):
    # nothing reduces an angle mod 1 before these functions, so a whole turn
    # added to either argument must leave every bit of their values alone
    a2, b2 = a + m, b + n
    assert signed_turns(a2 - b2) == signed_turns(a - b + (m - n)) == signed_turns(a - b)
    assert repr(unit_point(a2)) == repr(unit_point(a))
    assert repr(unit_diff(a2, b2)) == repr(unit_diff(a, b))
    assert repr(chord_distance(a2, b2)) == repr(chord_distance(a, b))
    for seq in (FACTORIALS, _REAL):
        assert repr(d_metric(a2, b2, seq, len(seq))) == repr(d_metric(a, b, seq, len(seq)))


def test_torus_from_chord_clamps_to_the_circle():
    assert torus_from_chord(-1.0) == 0.0
    assert torus_from_chord(2.0) == torus_from_chord(3.0) == 0.5


# --- d_metric ------------------------------------------------------------


def test_d_metric_identity_and_base_case():
    seq1 = IndexSequence((1,), "integer")
    assert d_metric(Fraction(1, 3), Fraction(1, 3), seq1, 1) == 0.0
    assert d_metric(Fraction(0), Fraction(1, 2), seq1, 1) == pytest.approx(2.0, abs=1e-15)


def test_d_metric_factorial_oracle():
    seq = IndexSequence((1, 2, 6, 24, 120), "integer")
    got = d_metric(Fraction(0), Fraction(1, 120), seq, 5)
    assert got == pytest.approx(2.0 * math.sin(math.pi / 5.0), abs=1e-14)


def test_d_metric_horizon_errors():
    seq = IndexSequence((1, 2, 6), "integer")
    with pytest.raises(HorizonExceedsSequence):
        d_metric(Fraction(0), Fraction(1, 3), seq, 4)
    with pytest.raises(HorizonExceedsSequence):
        d_metric(Fraction(0), Fraction(1, 3), seq, 0)


fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=150, deadline=None)
@given(fractions_01, fractions_01, fractions_01)
def test_d_metric_pseudometric(a, b, c):
    seq = FACTORIALS
    dab = d_metric(a, b, seq, 6)
    dba = d_metric(b, a, seq, 6)
    assert dab == dba
    assert dab <= d_metric(a, c, seq, 6) + d_metric(c, b, seq, 6) + 1e-12


@settings(max_examples=80, deadline=None)
@given(fractions_01, fractions_01)
def test_d_metric_monotone_in_horizon_and_dominates_chord(a, b):
    prev = 0.0
    for K in range(1, len(FACTORIALS) + 1):
        cur = d_metric(a, b, FACTORIALS, K)
        assert cur >= prev
        prev = cur
    assert d_metric(a, b, FACTORIALS, 3) >= chord_distance(a, b) - 1e-15


# --- separation constant --------------------------------------------------


def test_separation_constant_full_integers():
    seq = IndexSequence.integers_up_to(200)
    rep = separation_constant(seq, 200)
    assert rep.epsilon_hat_torus == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert rep.epsilon_hat == pytest.approx(math.sqrt(3.0), abs=5e-3)


def test_separation_constant_factorials_decay():
    prev = math.inf
    for K in range(4, 9):
        rep = separation_constant(FACTORIALS, K)
        assert rep.epsilon_hat_torus < prev
        prev = rep.epsilon_hat_torus
    # horizon 8: guaranteed witness 1/5040 shows f <= 720/5040
    assert prev <= 1.0 / 7.0 + 1e-3


def test_separation_constant_single_term_boundary():
    seq = IndexSequence((1,), "integer")
    rep = separation_constant(seq, 1, resolution=1e-4)
    assert rep.boundary_limited
    assert rep.epsilon_hat_torus <= 2e-4


def test_separation_report_sandwich():
    rep = separation_constant(FACTORIALS, 6)
    t = rep.epsilon_hat_torus
    assert 4.0 * t <= rep.epsilon_hat + 1e-12
    assert rep.epsilon_hat <= 2.0 * math.pi * t + 1e-12


def test_separation_constant_monotone_horizons_on_fixed_grid():
    # f_K <= f_{K+1} pointwise, so on a fixed domain inf f_K <= inf f_{K+1}: each certified
    # lower end sits below the next horizon's upper end
    reps = [separation_constant(FACTORIALS, K, resolution=1e-4, theta_min=0.01) for K in range(2, 9)]
    assert all(r.epsilon_hat_torus - r.lower_bound_torus <= 1e-4 for r in reps)
    assert all(a.lower_bound_torus <= b.epsilon_hat_torus for a, b in zip(reps, reps[1:]))


def test_separation_constant_validation():
    with pytest.raises(InvalidResolution):
        separation_constant(FACTORIALS, 4, resolution=0.0)
    with pytest.raises(HorizonExceedsSequence):
        separation_constant(FACTORIALS, 9)
    with pytest.raises(OutOfDomain):
        separation_constant(FACTORIALS, 4, theta_min=0.7)
    # widths below the double spacing at 1/2
    with pytest.raises(InvalidResolution, match="double spacing"):
        separation_constant(FACTORIALS, 4, resolution=1e-300)
    with pytest.raises(InvalidResolution, match="double spacing"):
        separation_constant(FACTORIALS, 4, resolution=math.ulp(0.5) / 2, theta_min=0.5 - 1e-14)
    rep = separation_constant(FACTORIALS, 4, resolution=math.ulp(0.5), theta_min=0.5 - 1e-14)
    assert rep.resolution == math.ulp(0.5)


@pytest.mark.parametrize("K", [31, 40])
def test_separation_powers_of_two_certify_one_third(K):
    # every theta in [2^-K, 1/2] has some 2^k theta within 1/3 of 1/2 (mod 1), and 1/3 attains it
    t0 = time.perf_counter()
    rep = separation_constant(IndexSequence.powers_of_two(K), K)
    elapsed = time.perf_counter() - t0
    assert rep.lower_bound_torus <= 1.0 / 3.0 <= rep.epsilon_hat_torus
    assert rep.epsilon_hat_torus - rep.lower_bound_torus <= 1e-6
    assert elapsed < 1.0


def test_separation_factorials_certify_a_floor_at_twelve():
    rep = separation_constant(IndexSequence.factorials(12), 12)
    assert rep.lower_bound_torus >= 0.07
    assert rep.lower_bound_torus <= 1.0 / 13.0 <= rep.epsilon_hat_torus + 1e-6


def test_separation_terms_past_two_to_the_53_stay_exact():
    seq = IndexSequence((1, 3, 3**40))
    # on the default domain the infimum is 3 / 3^40, at theta = 1 / 3^40: below any resolution,
    # so the certified interval is [0, upper] with upper itself within the resolution
    rep = separation_constant(seq, 3, resolution=1e-5)
    assert rep.lower_bound_torus == 0.0 and rep.epsilon_hat_torus <= 1e-5
    assert rep.epsilon_hat_torus == float(_f_exact(seq.terms, rep.witness))
    # away from it, max(theta, ||3 theta||) >= 3/100 is certified with the huge term in play
    rep = separation_constant(seq, 3, resolution=3e-6, theta_min=0.01)
    assert 0.0299 <= rep.lower_bound_torus <= 0.03 <= rep.epsilon_hat_torus <= rep.lower_bound_torus + 3e-6


def test_separation_odd_points_see_past_the_last_bit_of_a_double():
    # every double in [1/4, 1/2] ends at 2^-54 or above, so it reads exactly 1/2 on some 2^k
    # with k < 60; the a / 3^19 points do not, and one of them is 1/3, where f is 1/3
    rep = separation_constant(IndexSequence.powers_of_two(60), 60, resolution=1e-2, theta_min=0.25)
    assert not rep.truncated
    assert rep.lower_bound_torus <= 1.0 / 3.0 == rep.epsilon_hat_torus
    assert rep.witness == Fraction(1, 3)


@pytest.mark.parametrize("L", range(5, 15))
def test_profile_gate_opens_on_the_factorial_ladder(L):
    profile = _separation_profile(IndexSequence.factorials(15), L)
    assert [h for h, _, _ in profile] == sorted({math.ceil(L / 4), math.ceil(L / 2), L})
    assert all(0.0 <= lo <= up <= lo + 1e-5 for _, lo, up in profile)
    assert _profile_decays(profile)


@pytest.mark.parametrize("seq", [IndexSequence.powers_of_two(40), IndexSequence.integers_up_to(100)])
def test_profile_gate_stays_shut_on_separated_sequences(seq):
    assert not _profile_decays(_separation_profile(seq, len(seq)))


# --- box search -------------------------------------------------------------


def _rechunked(search: _BoxSearch, chunk: int) -> _BoxSearch:
    """The same search taking ``chunk`` boxes at a time."""
    search.chunk = chunk
    search.scratch = [np.empty(search.parts.size * chunk) for _ in range(3)]
    return search


# points around 2^11 and 2^13: these straddle the chunks of 32 and 8 one-part terms, and
# span several chunks from 64 terms on
@pytest.mark.parametrize("n_thetas", [0, 1, 2047, 2048, 2049, 8191, 8192, 8193])
@pytest.mark.parametrize("n_terms", [1, 3, 64, 65, 1000])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([10.0, 1e6, 1e18]))
def test_box_search_evaluate_matches_one_shot_reference(n_terms, n_thetas, seed, scale):
    # f_K at a batch of points, as the box search evaluates it chunk by chunk, equals the
    # same batch in chunks of another size (one chunk up to 97 points) bit for bit, and the
    # exact f to within the search's margin
    rng = np.random.default_rng(seed)
    terms = tuple(int(t) for t in np.sort(np.floor(rng.uniform(1.0, scale, n_terms))))
    thetas = rng.uniform(0.0, 0.5, n_thetas)
    search = _BoxSearch(terms, 0.0, 0.5)
    bounds, values, point = search.evaluate(thetas, thetas)
    want_bounds, want_values, _ = _rechunked(_BoxSearch(terms, 0.0, 0.5), 97).evaluate(thetas, thetas)
    assert np.array_equal(values, want_values) and np.array_equal(bounds, want_bounds)
    for i in range(min(n_thetas, 3)):
        assert abs(values[i] - float(_f_exact(terms, point(i)))) <= search.margin


_INTEGER_TERMS = st.lists(st.integers(2, 10**7), max_size=40).map(lambda ts: (1,) + tuple(sorted(set(ts))))
_REAL_TERMS = st.lists(st.floats(1.0, 1e7, exclude_min=True), max_size=40).map(
    lambda ts: (1.0,) + tuple(sorted(set(ts)))
)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.one_of(_INTEGER_TERMS, _REAL_TERMS),
    resolution=st.floats(3.0, 5.7).map(lambda e: 10.0 ** -e),
    theta_min=st.one_of(st.none(), st.floats(1e-4, 0.49)),
    probes=st.lists(st.fractions(0, 1, max_denominator=10**12), min_size=1, max_size=8),
)
@example(terms=(1, 3, 3**40), resolution=1e-5, theta_min=None, probes=[Fraction(1, 3)])
@example(terms=(1, 3, 3**40), resolution=3e-6, theta_min=0.01, probes=[Fraction(0), Fraction(1)])
@example(terms=tuple(range(1, 101)), resolution=1e-5, theta_min=0.25, probes=[Fraction(1, 4)])
# K > 64: several chunks of boxes per round
@example(terms=tuple(range(1, 201, 2)), resolution=1e-6, theta_min=0.1, probes=[Fraction(1, 2)])
# two large terms leave thousands of valleys near the floor: the budget ends the search
@example(terms=(1.0, 5625404.0, 9997663.0), resolution=1e-3, theta_min=None, probes=[Fraction(0)])
def test_block_bound_keeps_separation_report(terms, resolution, theta_min, probes):
    # the certified interval: upper is f at the witness, exactly; lower is below f at every
    # exact theta of the domain; and the two are at most the resolution apart unless the
    # box budget ran out first, which the report says
    seq = IndexSequence(terms, "integer" if isinstance(terms[0], int) else "real")
    rep = separation_constant(seq, len(terms), resolution, theta_min)
    assert rep.epsilon_hat_torus == float(_f_exact(terms, rep.witness))
    assert rep.theta_min <= rep.witness <= Fraction(1, 2)
    assert rep.truncated or rep.epsilon_hat_torus - rep.lower_bound_torus <= resolution
    lo = Fraction(rep.theta_min)
    for u in probes:
        assert Fraction(rep.lower_bound_torus) <= _f_exact(terms, lo + u * (Fraction(1, 2) - lo))


def _f_exact_fractions(terms, theta):
    """The Fraction loop the integer witness recheck replaced."""
    return max(torus_norm(Fraction(t) * theta) for t in terms)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.one_of(
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=30),
        st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    ),
    theta=st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=10**30),
        st.floats(-2.0, 2.0).map(Fraction),
    ),
)
@example(terms=[1, 2, 4, 8], theta=Fraction(1, 3))
@example(terms=[1, 3, 3**40], theta=Fraction(0))
@example(terms=[1.0, 2.5, 1e-300], theta=Fraction(1, 2))
def test_f_exact_matches_the_fraction_loop(terms, theta):
    got = _f_exact(terms, theta)
    assert isinstance(got, Fraction)
    assert got == _f_exact_fractions(terms, theta)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.one_of(
        st.lists(st.integers(2, 2**62), max_size=80).map(lambda ts: (1,) + tuple(sorted(set(ts)))),
        st.lists(st.floats(1.0, 1e12, exclude_min=True), max_size=80).map(lambda ts: (1.0,) + tuple(sorted(set(ts)))),
    ),
    centre=st.floats(0.0, 0.5),
    scale=st.floats(0.0, 0.5),
    probes=st.lists(st.fractions(0, 1, max_denominator=10**12), max_size=4),
)
@example(terms=(1, 3, 3**40), centre=0.3, scale=0.4, probes=[])
@example(terms=(1, 2**60, 3**40 * 2**20), centre=1 / 3, scale=1e-3, probes=[Fraction(1, 2)])
def test_block_bound_is_below_every_float_point(terms, centre, scale, probes):
    # the bound must hold at every point of the box, the doubles in it and exact rationals alike
    half_width = scale / max(terms)
    lo, hi = max(0.0, centre - half_width), min(0.5, centre + half_width)
    search = _BoxSearch(terms, lo, hi)
    bound = search.evaluate(np.array([lo]), np.array([hi]))[0][0]
    points = [Fraction(x) for x in np.linspace(lo, hi, 64)]
    points += [Fraction(lo) + u * (Fraction(hi) - Fraction(lo)) for u in probes]
    assert all(Fraction(bound) <= _f_exact(terms, theta) for theta in points)


@pytest.mark.parametrize("K, boxes", [(12, 8192), (1000, 2048)])
def test_scan_scratch_is_capped_in_doubles(K, boxes):
    # at K = 1000 one chunk holds 65 boxes, so 2048 boxes go through the same buffers in 32
    search = _BoxSearch(tuple(range(1, K + 1)), 0.001, 0.5)
    edges = np.linspace(0.001, 0.5, boxes + 1)
    bounds, values, _ = search.evaluate(edges[:-1], edges[1:])
    assert bounds.shape == values.shape == (boxes,)
    assert search.chunk == _SCRATCH // K
    assert all(b.size <= _SCRATCH for b in search.scratch)


def test_block_bound_leaves_few_points_to_scan(monkeypatch):
    # the grid this search replaced evaluated every 1e-6 step of the domain
    evaluated = []
    evaluate = _BoxSearch.evaluate

    def counting(self, lo, hi):
        assert lo.size <= _SCRATCH  # no round outgrows the scratch cap
        evaluated.append(lo.size)
        return evaluate(self, lo, hi)

    monkeypatch.setattr(_BoxSearch, "evaluate", counting)
    rep = separation_constant(IndexSequence.integers_up_to(1000), 1000, resolution=1e-6)
    n_points = int(math.floor((0.5 - rep.theta_min) / 1e-6)) + 1
    assert sum(evaluated) < n_points / 10


# The box search's traversal on the benchmark's analyze inputs at --resolution 1e-7, recorded before
# the separation floor and the near-return search shared one driver: per horizon K, the evaluate
# calls, the boxes evaluated, the witness, the lower end (as float.hex) and truncated
ANALYZE_TRAVERSAL = {
    "integers": (IndexSequence.integers_up_to(1000), [
        (10, 17, 97, "1501199852250395/4503599627370496", "0x1.5555555555535p-2", False),
        (100, 17, 313, "375299968359047/1125899906842624", "0x1.555554e993a83p-2", False),
        (1000, 19, 2272, "375299968849459/1125899906842624", "0x1.55555548c2ff6p-2", False),
    ]),
    "factorials": (IndexSequence.factorials(12), [
        (6, 19, 133, "1372525928867663/1152921504606846976", "0x1.249243592699bp-3", False),
        (8, 23, 286, "813348487708425/36893488147419103232", "0x1.c71c6665cdb6ap-4", False),
        (10, 27, 853, "2366105590129967/9444732965739290427392", "0x1.745d1677aa132p-4", False),
    ]),
    "powers2": (IndexSequence.powers_of_two(12), [
        (4, 16, 145, "187649999186127/2251799813685248", "0x1.555551d35cc20p-2", False),
        (8, 19, 382, "3002399753623713/9007199254740992", "0x1.555551c846ba0p-2", False),
        (12, 21, 721, "1501199894559015/1152921504606846976", "0x1.55554fdb8ffc2p-2", False),
    ]),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_TRAVERSAL))
def test_separation_search_walks_the_recorded_boxes(monkeypatch, name):
    seq, want = ANALYZE_TRAVERSAL[name]
    evaluated = []
    evaluate = _BoxSearch.evaluate
    monkeypatch.setattr(_BoxSearch, "evaluate", lambda self, lo, hi: evaluated.append(lo.size) or evaluate(self, lo, hi))
    got = []
    for K, *_ in want:
        evaluated.clear()
        rep = separation_constant(seq, K, resolution=1e-7)
        got.append((K, len(evaluated), sum(evaluated), str(rep.witness), rep.lower_bound_torus.hex(), rep.truncated))
    assert got == want


def test_separation_scan_memory_bounded_by_tile():
    seq = IndexSequence.integers_up_to(1000)
    tracemalloc.start()
    try:
        separation_constant(seq, 1000, resolution=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_separation_scan_peak_does_not_grow_with_resolution():
    # thetas are generated per tile, so a ten times finer grid holds no more
    seq = IndexSequence.integers_up_to(64)
    peaks = []
    for resolution in (1e-5, 1e-6):
        tracemalloc.start()
        try:
            separation_constant(seq, 64, resolution=resolution)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


# --- classification -------------------------------------------------------


def test_classify_integers_separated():
    res = classify_jamison(IndexSequence.integers_up_to(1000), (10, 100, 1000))
    assert res.verdict == SEPARATED
    assert res.floor == pytest.approx(1.0 / 3.0, abs=0.01)


def test_classify_factorials_vanishing():
    res = classify_jamison(FACTORIALS, (4, 6, 8))
    assert res.verdict == VANISHING
    assert res.decay_slope is not None and res.decay_slope <= -0.5


def test_classify_powers_of_two_separated():
    res = classify_jamison(IndexSequence.powers_of_two(24), (8, 16, 24))
    assert res.verdict == SEPARATED
    assert res.floor >= 0.01


@pytest.mark.parametrize(
    "seq, horizons, verdict, floors",
    [
        (IndexSequence.integers_up_to(1000), (10, 100, 1000), SEPARATED, (1 / 3, 1 / 3, 1 / 3)),
        (IndexSequence.factorials(12), (6, 8, 10), VANISHING, (1 / 7, 1 / 9, 1 / 11)),
        (IndexSequence.powers_of_two(12), (4, 8, 12), SEPARATED, (1 / 3, 1 / 3, 1 / 3)),
    ],
    ids=["integers", "factorials", "powers2"],
)
def test_benchmark_analyze_verdicts(seq, horizons, verdict, floors):
    # the full sequence-lab analyze inputs at its resolution, with the verdicts that
    # benchmarks/references.json pins: a flip shows here before the benchmark refuses a run
    res = classify_jamison(seq, horizons, resolution=1e-7)
    assert res.verdict == verdict
    for rep, floor in zip(res.reports, floors):
        assert rep.epsilon_hat_torus - rep.lower_bound_torus <= 1e-7
        assert rep.lower_bound_torus <= floor <= rep.epsilon_hat_torus


def test_classify_reads_no_verdict_from_a_truncated_interval():
    # 2^k past K = 44 outgrows the box budget at the default resolution: the upper end of
    # its interval is no estimate of the floor, so no verdict rests on it
    res = classify_jamison(IndexSequence.powers_of_two(48), (16, 32, 48))
    assert res.reports[-1].truncated and not res.reports[0].truncated
    assert res.verdict == INCONCLUSIVE


def test_classify_validation():
    with pytest.raises(EmptyHorizons):
        classify_jamison(FACTORIALS, ())
    with pytest.raises(ConfigInvalid):
        classify_jamison(FACTORIALS, (4, 4))
    res = classify_jamison(FACTORIALS, (4, 6))
    assert res.verdict == INCONCLUSIVE


# --- near-return search ----------------------------------------------------


def test_near_return_factorials_small_eta():
    pts = near_return_search(FACTORIALS, 8, eta=1e-3, max_candidates=4)
    assert pts
    for p in pts:
        assert _f_exact(FACTORIALS.terms, p) <= Fraction(1, 1000)


def test_near_return_separated_sequence_comes_up_empty():
    seq = IndexSequence.integers_up_to(100)
    assert near_return_search(seq, 100, eta=0.2) == []


@pytest.mark.parametrize("K", [24, 40])
def test_near_return_powers_of_two_keep_the_gate_shut(K):
    # the profile certifies 1/3 at every sub-horizon of 2^k, so it does not decay
    assert near_return_search(IndexSequence.powers_of_two(K), K, eta=1e-3) == []


def test_near_return_vacuous_eta_fills_budget():
    seq = IndexSequence.integers_up_to(100)
    pts = near_return_search(seq, 100, eta=0.5, max_candidates=5)
    assert len(pts) == 5


def test_near_return_resolved_domain_hit():
    pts = near_return_search(FACTORIALS, 8, eta=0.12, max_candidates=2)
    assert pts
    for p in pts:
        assert float(p) >= 1.0 / (2.0 * 40320.0)
        assert _f_exact(FACTORIALS.terms, p) <= Fraction(12, 100)


def test_near_return_respects_exclude_and_arc():
    arc = (Fraction(1, 100), Fraction(1, 10))
    pts = near_return_search(FACTORIALS, 8, eta=0.45, max_candidates=3, arc=arc)
    for p in pts:
        assert Fraction(1, 100) < p <= Fraction(1, 10)


@settings(max_examples=100, deadline=None)
@given(terms=st.one_of(_INTEGER_TERMS, _REAL_TERMS), lo=st.floats(1e-12, 0.5))
def test_box_evaluate_never_reads_below_theta(terms, lo):
    # t_1 = 1 gives f_K(theta) >= theta, and the search reads that term exactly, so a box's
    # bound is at least its lower end less the margin: pass 1 drops the boxes above eta on it
    edges = np.linspace(lo, min(2.0 * lo, 0.5), 257)
    search = _BoxSearch(terms, lo, 0.5)
    bounds, values, _ = search.evaluate(edges, edges)
    assert (values[:edges.size] >= edges).all()
    bounds = search.evaluate(edges[:-1], edges[1:])[0]
    assert (bounds >= edges[:-1] - 2.0 * search.margin).all()


@pytest.mark.parametrize("eta", [0.12, 1e-2, 1e-3, 1e-6])
def test_near_return_scans_no_band_above_its_reach(monkeypatch, eta):
    # t_1 = 1 gives f_K(theta) >= theta, so pass 1 cuts no box that starts above eta
    sequences._separation_profile(FACTORIALS, 8)  # pass 2's profile, cached before recording
    split = sequences._split
    cut_lows = []

    def recording(lo, hi):
        cut_lows.extend(lo.tolist())
        return split(lo, hi)

    monkeypatch.setattr(sequences, "_split", recording)
    pts = near_return_search(FACTORIALS, 8, eta=eta, max_candidates=4)
    assert pts
    assert all(lo <= eta for lo in cut_lows)
    if eta < 1.0 / (2.0 * 40320.0):
        assert cut_lows == []  # below the resolved floor the offsets come from the witnesses


def test_near_return_validation():
    with pytest.raises(InvalidEta):
        near_return_search(FACTORIALS, 8, eta=0.0)
    with pytest.raises(OutOfDomain):
        near_return_search(FACTORIALS, 8, eta=0.1, arc=(0.2, 0.9))
    # the normal doubles at either end stay usable
    for eta in (1e-300, 1e300):
        assert len(near_return_search(FACTORIALS, 8, eta=eta)) == 8


@pytest.mark.parametrize("eta", [float("inf"), 1e-310, 5e-324])
def test_near_return_refuses_eta_without_finite_reciprocal(eta):
    # inf has no Fraction; a subnormal's reciprocal overflows in pass 2's ceil(1 / eta)
    with pytest.raises(InvalidEta):
        near_return_search(FACTORIALS, 8, eta=eta)


# --- chord / torus sandwich ---------------------------------------------------


def test_chord_torus_examples():
    rep = chord_torus_bounds_check([0.5])
    assert rep.all_ok and rep.min_lower_ratio == pytest.approx(1.0, abs=1e-12)
    rep = chord_torus_bounds_check([1e-6])
    assert rep.all_ok and rep.max_upper_ratio == pytest.approx(1.0, abs=1e-6)
    rep = chord_torus_bounds_check([0.25])
    assert rep.all_ok


def test_chord_torus_sweep():
    rep = chord_torus_bounds_check(np.linspace(1e-9, 0.5, 10001))
    assert rep.all_ok


def test_chord_torus_domain():
    with pytest.raises(OutOfDomain):
        chord_torus_bounds_check([0.6])
    with pytest.raises(DegenerateInput):
        chord_torus_bounds_check([])


# --- dimension probe ----------------------------------------------------------


def test_box_dimension_uniform():
    pts = [Fraction(i, 1024) for i in range(1024)]
    dim = box_dimension_estimate(pts, [2.0 ** -e for e in range(3, 9)])
    assert dim == pytest.approx(1.0, abs=0.05)


def test_box_dimension_two_points():
    pts = [Fraction(0), Fraction(1, 2)]
    dim = box_dimension_estimate(pts, [2.0 ** -e for e in range(3, 8)])
    assert dim == 0.0


def test_box_dimension_cantor():
    xs = [Fraction(0)]
    for _ in range(9):
        xs = [x / 3 for x in xs] + [x / 3 + Fraction(2, 3) for x in xs]
    dim = box_dimension_estimate(xs, [3.0 ** -e for e in range(2, 8)])
    assert dim == pytest.approx(math.log(2) / math.log(3), abs=0.05)


def test_box_dimension_validation():
    with pytest.raises(DegenerateInput):
        box_dimension_estimate([Fraction(0)], [0.1])
    with pytest.raises(DegenerateInput):
        box_dimension_estimate([Fraction(0), Fraction(1, 2)], [0.1, 0.2])


# --- IndexSequence validation -------------------------------------------------


def test_index_sequence_validation():
    with pytest.raises(PreconditionViolated):
        IndexSequence((2, 3), "integer")
    with pytest.raises(PreconditionViolated):
        IndexSequence((1, 1), "integer")
    with pytest.raises(PreconditionViolated):
        IndexSequence((1, 2.5), "integer")
    with pytest.raises(ConfigInvalid):
        IndexSequence((), "integer")
    with pytest.raises(ConfigInvalid):
        IndexSequence((1, 2), "weird")
    # bool is an int subclass, numpy's bool is not, and neither is a term
    for kind in ("integer", "real"):
        for flag in (True, np.True_):
            with pytest.raises(ConfigInvalid, match="not booleans"):
                IndexSequence((1, 2, flag), kind)
    assert IndexSequence((1, 2.5, 7.9), "real").terms == (1.0, 2.5, 7.9)


def test_index_sequence_keeps_integers_past_2_53_exact():
    for terms in ((1, 3, 3 ** 40), IndexSequence.factorials(25).terms):
        seq = IndexSequence(terms, "integer")
        assert seq.terms == tuple(terms)
        assert all(type(t) is int for t in seq.terms)
    assert IndexSequence.factorials(25).terms[-1] == math.factorial(25)
    # integral floats up to 2^53 still read as the integer they name
    assert IndexSequence((1.0, 2.0, float(2 ** 53)), "integer").terms == (1, 2, 2 ** 53)
    # 1e30 is the double 10^30 + 19884624838656: no single integer, so refused
    with pytest.raises(ConfigInvalid):
        IndexSequence((1, 2, 1e30), "integer")
    with pytest.raises(ConfigInvalid):
        IndexSequence((1, 2, 10 ** 400), "integer")
