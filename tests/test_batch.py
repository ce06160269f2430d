"""One kernel call per set of times: a batch is its singles, bit for bit.

funm.apply takes a sequence of functions and groups them by cluster
labelling; within a group each cluster's block and its powers are shared,
while every Taylor sum stops on its own test.  So each matrix of a batch
must carry the bits the batch of one gives it.  The node phases come from
integer residues (sequences.unit_point), which must give the double that
the Fraction route gives.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamison import funm
from jamison.funm import ExpLog, Log, NodeSet, Power, apply
from jamison.sequences import turns_to_radians, unit_point

# spectra: one to three centres on a short arc, each node a centre plus an offset
# from 1e-15 to 1e-3 turns, so at large times a cluster splits and the
# cross-cluster recurrence joins its parts
_centres = st.fractions(Fraction(-1, 6), Fraction(1, 6), max_denominator=10**6)
_offset = st.builds(lambda k, e: Fraction(k, 10**e), st.integers(-9, 9), st.integers(3, 15))
_spectra = st.lists(_centres, min_size=1, max_size=3).flatmap(
    lambda centres: st.lists(
        st.builds(lambda c, d: c + d, st.sampled_from(centres), _offset), min_size=3, max_size=6
    )
)
_times = st.lists(
    st.one_of(
        st.fractions(0, 10**7, max_denominator=10**4),
        st.floats(0.0, 1e7, allow_nan=False).map(Fraction),
        st.integers(0, 10**7).map(Fraction),
    ),
    min_size=1,
    max_size=8,
)

# two clusters 1/20 and 1/10 wide apart at scale 1, each split at scale 1e9
_TWO_LABELLINGS = (
    [Fraction(1, 20), Fraction(1, 10), Fraction(1, 20) + Fraction(1, 10**9), Fraction(1, 10) - Fraction(3, 10**9)],
    [Fraction(1, 2), Fraction(10**9) + Fraction(1, 3), Fraction(5, 2), Fraction(10**3)],
)


def _bits(M: np.ndarray) -> bytes:
    return np.ascontiguousarray(M).tobytes()


def _batch_equals_singles(thetas, fs, singles):
    nodes = NodeSet(tuple(thetas))
    batch = apply(nodes, fs)
    assert batch.shape == (len(fs), len(thetas), len(thetas))
    for got, f in zip(batch, singles):
        (alone,) = apply(NodeSet(tuple(thetas)), [f])
        assert _bits(got) == _bits(alone)


@settings(max_examples=60, deadline=None)
@given(_spectra, _times)
@example(*_TWO_LABELLINGS)
def test_a_batch_of_powers_is_its_singles_bit_for_bit(thetas, times):
    _batch_equals_singles(thetas, [Power(t) for t in times], [Power(t) for t in times])


@settings(max_examples=60, deadline=None)
@given(_spectra, _times)
@example(*_TWO_LABELLINGS)
def test_a_batch_of_exponentials_is_its_singles_bit_for_bit(thetas, times):
    # the batch shares one memo of log blocks; each single forms its own
    logs = {}
    _batch_equals_singles(thetas, [ExpLog(t, logs) for t in times], [ExpLog(t, {}) for t in times])


@settings(max_examples=30, deadline=None)
@given(_spectra, st.integers(1, 4))
def test_a_batch_of_logs_is_its_single_bit_for_bit(thetas, count):
    _batch_equals_singles(thetas, [Log()] * count, [Log()] * count)


def test_the_two_labelling_example_takes_two_groups_and_cross_cluster_steps():
    thetas, times = _TWO_LABELLINGS
    nodes = NodeSet(tuple(thetas))
    labels = {tuple(funm.clusters(nodes, Power(t).scale)) for t in times}
    assert len(labels) == 2
    assert all(max(label) >= 1 for label in labels)  # every labelling has two clusters or more


def test_a_batch_of_none_is_an_empty_stack():
    assert apply(NodeSet((Fraction(1, 7), Fraction(1, 5))), []).shape == (0, 2, 2)


# --- phases from integer residues ---------------------------------------------


def _fraction_route(angle: Fraction) -> complex:
    phi = turns_to_radians(angle % 1)
    return complex(math.cos(phi), math.sin(phi))


_huge = st.integers(10**299, 10**300)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.fractions(-3, 3, max_denominator=10**12),
        st.builds(Fraction, st.integers(-(10**301), 10**301), _huge),
    ),
    st.one_of(
        st.integers(-(10**20), 10**20),
        st.fractions(-(10**9), 10**9, max_denominator=10**6),
        st.floats(-1e15, 1e15, allow_nan=False).map(Fraction),
        st.builds(Fraction, st.integers(-(10**300), 10**300), _huge),
    ),
)
@example(Fraction(-1, 3), 7)
@example(Fraction(2, 3), Fraction(-5, 2))
def test_the_residue_phase_is_the_fraction_phase_bit_for_bit(theta, t):
    got = unit_point(theta, t)
    assert got == _fraction_route(t * theta)
    assert math.copysign(1.0, got.imag) == math.copysign(1.0, _fraction_route(t * theta).imag)
