import math
import tracemalloc
from fractions import Fraction

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
    TorusPoint,
    box_dimension_estimate,
    chord_distance,
    chord_torus_bounds_check,
    classify_jamison,
    d_metric,
    near_return_search,
    separation_constant,
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
    _BLOCK,
    _CHUNK,
    _MAX_GRID_POINTS,
    _SCRATCH,
    _TILE,
    SeparationReport,
    _f_exact,
    _f_grid,
    _TileScan,
    _ternary_refine,
)

FACTORIALS = IndexSequence.factorials(8)


def tp(x) -> TorusPoint:
    return TorusPoint(Fraction(x))


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
    assert chord_distance(tp(0), tp(Fraction(1, 2))) == pytest.approx(2.0, abs=1e-15)
    assert chord_distance(tp(Fraction(1, 4)), tp(Fraction(1, 4))) == 0.0
    assert chord_distance(tp(0), tp(Fraction(1, 6))) == pytest.approx(1.0, abs=1e-15)


def test_torus_point_canonical():
    assert tp(Fraction(5, 4)).theta == Fraction(1, 4)
    assert tp(Fraction(-1, 4)).theta == Fraction(3, 4)
    assert tp(Fraction(5, 4)) == tp(Fraction(1, 4))


def test_unit_diff_matches_naive_subtraction():
    a, b = tp(Fraction(1, 7)), tp(Fraction(2, 5))
    naive = a.complex_value() - b.complex_value()
    assert abs(unit_diff(a, b) - naive) < 1e-14


def test_unit_diff_keeps_relative_accuracy_for_tiny_gaps():
    delta = Fraction(1, 10 ** 40)
    a = tp(Fraction(1, 3) + delta)
    b = tp(Fraction(1, 3))
    d = unit_diff(a, b)
    expected_mod = 2.0 * math.sin(math.pi * float(delta))
    assert abs(d) == pytest.approx(expected_mod, rel=1e-12)
    # small-gap limit: direction approaches i * e^{2 pi i b}
    direction = d / (1j * b.complex_value())
    assert direction.real == pytest.approx(abs(d), rel=1e-9)
    assert abs(direction.imag) <= abs(d) * 1e-9


# --- d_metric ------------------------------------------------------------


def test_d_metric_identity_and_base_case():
    seq1 = IndexSequence((1,), "integer")
    assert d_metric(tp(Fraction(1, 3)), tp(Fraction(1, 3)), seq1, 1) == 0.0
    assert d_metric(tp(0), tp(Fraction(1, 2)), seq1, 1) == pytest.approx(2.0, abs=1e-15)


def test_d_metric_factorial_oracle():
    seq = IndexSequence((1, 2, 6, 24, 120), "integer")
    got = d_metric(tp(0), tp(Fraction(1, 120)), seq, 5)
    assert got == pytest.approx(2.0 * math.sin(math.pi / 5.0), abs=1e-14)


def test_d_metric_horizon_errors():
    seq = IndexSequence((1, 2, 6), "integer")
    with pytest.raises(HorizonExceedsSequence):
        d_metric(tp(0), tp(Fraction(1, 3)), seq, 4)
    with pytest.raises(HorizonExceedsSequence):
        d_metric(tp(0), tp(Fraction(1, 3)), seq, 0)


fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=150, deadline=None)
@given(fractions_01, fractions_01, fractions_01)
def test_d_metric_pseudometric(a, b, c):
    seq = FACTORIALS
    pa, pb, pc = tp(a), tp(b), tp(c)
    dab = d_metric(pa, pb, seq, 6)
    dba = d_metric(pb, pa, seq, 6)
    assert dab == dba
    assert dab <= d_metric(pa, pc, seq, 6) + d_metric(pc, pb, seq, 6) + 1e-12


@settings(max_examples=80, deadline=None)
@given(fractions_01, fractions_01)
def test_d_metric_monotone_in_horizon_and_dominates_chord(a, b):
    pa, pb = tp(a), tp(b)
    prev = 0.0
    for K in range(1, len(FACTORIALS) + 1):
        cur = d_metric(pa, pb, FACTORIALS, K)
        assert cur >= prev
        prev = cur
    assert d_metric(pa, pb, FACTORIALS, 3) >= chord_distance(pa, pb) - 1e-15


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
    vals = []
    for K in range(2, 9):
        rep = separation_constant(FACTORIALS, K, resolution=1e-4, refine_steps=0, theta_min=0.01)
        vals.append(rep.epsilon_hat_torus)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_separation_constant_validation():
    with pytest.raises(InvalidResolution):
        separation_constant(FACTORIALS, 4, resolution=0.0)
    with pytest.raises(HorizonExceedsSequence):
        separation_constant(FACTORIALS, 9)
    with pytest.raises(OutOfDomain):
        separation_constant(FACTORIALS, 4, theta_min=0.7)
    # grids past _MAX_GRID_POINTS, and steps below the double spacing at 1/2
    with pytest.raises(InvalidResolution, match="grid points"):
        separation_constant(FACTORIALS, 4, resolution=0.25 / _MAX_GRID_POINTS)
    with pytest.raises(InvalidResolution, match="double spacing"):
        separation_constant(FACTORIALS, 4, resolution=1e-300)
    with pytest.raises(InvalidResolution, match="double spacing"):
        separation_constant(FACTORIALS, 4, resolution=math.ulp(0.5) / 2, theta_min=0.5 - 1e-14)
    rep = separation_constant(FACTORIALS, 4, resolution=math.ulp(0.5), theta_min=0.5 - 1e-14, refine_steps=0)
    assert rep.grid_resolution == math.ulp(0.5)


# --- grid kernel ------------------------------------------------------------


def _f_grid_reference(terms: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """One-shot f_K over the whole grid: the full outer product, no tiles, no pruning."""
    p = np.multiply.outer(terms, thetas)
    p = p - np.floor(p)
    return np.minimum(p, 1.0 - p).max(axis=0)


# the capped tile of K >= 64 terms and the full tile of K <= 16, each straddled
_CAPPED_TILE = _SCRATCH // _CHUNK


@pytest.mark.parametrize(
    "n_thetas", [0, 1, _CAPPED_TILE - 1, _CAPPED_TILE, _CAPPED_TILE + 1, _TILE - 1, _TILE, _TILE + 1]
)
@pytest.mark.parametrize("n_terms", [1, 3, 64, 65, 1000])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([10.0, 1e6, 1e18]),
    threshold=st.floats(0.0, 0.5),
)
def test_f_grid_matches_one_shot_reference(n_terms, n_thetas, seed, scale, threshold):
    rng = np.random.default_rng(seed)
    terms = np.sort(np.floor(rng.uniform(1.0, scale, n_terms)))
    thetas = rng.uniform(0.0, 0.5, n_thetas)
    want = _f_grid_reference(terms, thetas)
    assert np.array_equal(_f_grid(terms, thetas), want)
    got = _f_grid(terms, thetas, prune_above=threshold)
    exact = want <= threshold
    assert np.array_equal(got[exact], want[exact])
    assert np.all(got[~exact] > threshold)
    assert np.all(got[~exact] <= want[~exact])


def _separation_reference(seq, K, resolution, refine_steps, theta_min):
    """separation_constant without the block bound: every grid point, tile by tile, unpruned."""
    terms_exact = seq.prefix(K)
    terms = np.asarray(terms_exact, dtype=float)
    n_K = float(terms[-1])
    boundary_limited = theta_min is None and n_K <= 1.0
    if theta_min is None:
        theta_min = resolution if boundary_limited else 1.0 / (2.0 * n_K)
    pilot = np.linspace(theta_min, 0.5, 4097)
    f_pilot = _f_grid(terms, pilot)
    i = int(np.argmin(f_pilot))
    best_val, best_theta = float(f_pilot[i]), float(pilot[i])
    n_points = int(math.floor((0.5 - theta_min) / resolution)) + 1
    for start in range(0, n_points, _TILE):
        thetas = theta_min + resolution * np.arange(start, min(start + _TILE, n_points), dtype=float)
        thetas = thetas[thetas <= 0.5]
        if thetas.size == 0:
            continue
        f = _f_grid(terms, thetas)
        j = int(np.argmin(f))
        if f[j] < best_val:
            best_val, best_theta = float(f[j]), float(thetas[j])
    grid_min = best_val
    if refine_steps:
        lo = max(theta_min, best_theta - resolution)
        hi = min(0.5, best_theta + resolution)
        t_ref, f_ref = _ternary_refine(terms, lo, hi, refine_steps)
        if f_ref < best_val:
            best_val, best_theta = f_ref, t_ref
    witness = TorusPoint(Fraction(best_theta))
    eps_torus = float(_f_exact(terms_exact, witness.theta))
    return SeparationReport(
        horizon=K,
        epsilon_hat=2.0 * math.sin(math.pi * eps_torus),
        epsilon_hat_torus=eps_torus,
        witness=witness,
        grid_resolution=resolution,
        theta_min=theta_min,
        lower_bound_torus=max(0.0, grid_min - n_K * resolution / 2.0),
        boundary_limited=boundary_limited,
        refine_steps=refine_steps,
    )


_INTEGER_TERMS = st.lists(st.integers(2, 10**7), max_size=40).map(lambda ts: (1,) + tuple(sorted(set(ts))))
_REAL_TERMS = st.lists(st.floats(1.0, 1e7, exclude_min=True), max_size=40).map(
    lambda ts: (1.0,) + tuple(sorted(set(ts)))
)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.one_of(_INTEGER_TERMS, _REAL_TERMS),
    resolution=st.floats(3.0, 5.7).map(lambda e: 10.0 ** -e),
    refine_steps=st.sampled_from([0, 24]),
    theta_min=st.one_of(st.none(), st.floats(1e-4, 0.49)),
)
@example(terms=(1, 3, 3**40), resolution=1e-5, refine_steps=24, theta_min=None)
@example(terms=(1, 3, 3**40), resolution=3e-6, refine_steps=0, theta_min=0.01)
@example(terms=tuple(range(1, 101)), resolution=1e-5, refine_steps=0, theta_min=0.25)
# K > 64 over 400001 points: four capped tiles of blocks
@example(terms=tuple(range(1, 201, 2)), resolution=1e-6, refine_steps=24, theta_min=0.1)
# every example above ends its grid on a partial block of 64 points
def test_block_bound_keeps_separation_report(terms, resolution, refine_steps, theta_min):
    kind = "integer" if isinstance(terms[0], int) else "real"
    seq = IndexSequence(terms, kind)
    got = separation_constant(seq, len(terms), resolution, refine_steps, theta_min)
    assert got == _separation_reference(seq, len(terms), resolution, refine_steps, theta_min)


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
)
@example(terms=(1, 3, 3**40), centre=0.3, scale=0.4)
def test_block_bound_is_below_every_float_point(terms, centre, scale):
    # the bound must hold for the float f_K the scan computes, rounding included
    t = np.asarray(terms, dtype=float)
    half_width = scale / t[:_CHUNK].max()
    thetas = centre + half_width * np.linspace(-1.0, 1.0, _BLOCK)
    bound = _TileScan(t, 1).block_bound(np.array([centre]), half_width)[0]
    assert _f_grid(t, thetas).min() >= bound


@pytest.mark.parametrize("K, tile", [(12, _TILE), (1000, _CAPPED_TILE)])
def test_scan_scratch_is_capped_in_doubles(K, tile):
    scan = _TileScan(np.arange(1.0, K + 1.0), 10**9)
    assert scan.tile == tile
    assert scan.scratch_p.size <= _SCRATCH and scan.scratch_q.size <= _SCRATCH
    # a short grid gets no more scratch than it needs
    assert _TileScan(np.arange(1.0, K + 1.0), 3).scratch_p.size == 3 * min(K, _CHUNK)


def test_block_bound_leaves_few_points_to_scan(monkeypatch):
    arrived = []
    scan = _TileScan.__call__

    def counting(self, sub, prune_above=None):
        assert sub.size <= self.tile  # no survivor tile outgrows the capped scratch
        arrived.append(sub.size)
        return scan(self, sub, prune_above)

    monkeypatch.setattr(_TileScan, "__call__", counting)
    rep = separation_constant(IndexSequence.integers_up_to(1000), 1000, resolution=1e-6)
    n_points = int(math.floor((0.5 - rep.theta_min) / 1e-6)) + 1
    assert sum(arrived) < n_points / 10


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
        assert _f_exact(FACTORIALS.terms, p.theta) <= Fraction(1, 1000)


def test_near_return_separated_sequence_comes_up_empty():
    seq = IndexSequence.integers_up_to(100)
    assert near_return_search(seq, 100, eta=0.2) == []


@pytest.mark.parametrize("K", [24, 40])
def test_near_return_powers_of_two_keep_the_gate_shut(K):
    # a profile fine enough to resolve 1/n_h still reads 1/3 on 2^k; past n_h = 2^30 the
    # sub-horizon is left out rather than scanned on a dyadic grid that reads 1/2 everywhere
    assert near_return_search(IndexSequence.powers_of_two(K), K, eta=1e-3) == []


def test_near_return_vacuous_eta_fills_budget():
    seq = IndexSequence.integers_up_to(100)
    pts = near_return_search(seq, 100, eta=0.5, max_candidates=5)
    assert len(pts) == 5


def test_near_return_resolved_domain_hit():
    pts = near_return_search(FACTORIALS, 8, eta=0.12, max_candidates=2)
    assert pts
    for p in pts:
        assert float(p.theta) >= 1.0 / (2.0 * 40320.0)
        assert _f_exact(FACTORIALS.terms, p.theta) <= Fraction(12, 100)


def test_near_return_respects_exclude_and_arc():
    arc = (Fraction(1, 100), Fraction(1, 10))
    pts = near_return_search(FACTORIALS, 8, eta=0.45, max_candidates=3, arc=arc)
    for p in pts:
        assert Fraction(1, 100) < p.theta <= Fraction(1, 10)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.one_of(_INTEGER_TERMS, _REAL_TERMS),
    lo=st.floats(1e-12, 0.5),
    prune_above=st.one_of(st.just(math.inf), st.floats(0.0, 0.5)),
)
def test_f_grid_never_reads_below_theta(terms, lo, prune_above):
    # the float scan keeps f_K(theta) >= theta (t_1 = 1), pruned entries included:
    # near_return_search's descent skips the bands above 1.25 eta on this bound
    grid = np.linspace(lo, min(2.0 * lo, 0.5), 257)
    assert (_f_grid(np.asarray(terms, dtype=float), grid, prune_above=prune_above) >= grid).all()


@pytest.mark.parametrize("eta", [0.12, 1e-2, 1e-3, 1e-6])
def test_near_return_scans_no_band_above_its_reach(monkeypatch, eta):
    # t_1 = 1 gives f_K(theta) >= theta, so no grid hit (f <= 1.25 eta) lies above 1.25 eta
    real = sequences._f_grid
    band_lows = []

    def recording(terms, thetas, prune_above=math.inf):
        if math.isfinite(prune_above):  # the descent's bands; the profile's pilot scan sets no threshold
            band_lows.append(float(thetas[0]))
        return real(terms, thetas, prune_above)

    monkeypatch.setattr(sequences, "_f_grid", recording)
    pts = near_return_search(FACTORIALS, 8, eta=eta, max_candidates=4)
    assert pts
    assert all(lo <= 1.25 * eta for lo in band_lows)
    if 1.25 * eta < 1.0 / (2.0 * 40320.0):
        assert band_lows == []  # below the resolved floor the offsets come from the witnesses


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
    pts = [tp(Fraction(i, 1024)) for i in range(1024)]
    dim = box_dimension_estimate(pts, [2.0 ** -e for e in range(3, 9)])
    assert dim == pytest.approx(1.0, abs=0.05)


def test_box_dimension_two_points():
    pts = [tp(0), tp(Fraction(1, 2))]
    dim = box_dimension_estimate(pts, [2.0 ** -e for e in range(3, 8)])
    assert dim == 0.0


def test_box_dimension_cantor():
    xs = [Fraction(0)]
    for _ in range(9):
        xs = [x / 3 for x in xs] + [x / 3 + Fraction(2, 3) for x in xs]
    dim = box_dimension_estimate([tp(x) for x in xs], [3.0 ** -e for e in range(2, 8)])
    assert dim == pytest.approx(math.log(2) / math.log(3), abs=0.05)


def test_box_dimension_validation():
    with pytest.raises(DegenerateInput):
        box_dimension_estimate([tp(0)], [0.1])
    with pytest.raises(DegenerateInput):
        box_dimension_estimate([tp(0), tp(Fraction(1, 2))], [0.1, 0.2])


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
