"""Fiber 1's block and its rescaling against the dense level-major operator they stand for.

The reference is the LI x LI matrix with slot (i, l) at row (l-1)*I + (i-1),
built here entry by entry from the construction's weights.  The operator
holds its exact angles and fiber 1's band; fiber i's block of any function
of it is blocks.fiber_rescaled, and the operator's norms are fiber 1's.
"""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from jamison import IndexSequence, assemble_operator, build_construction, matrix_power, operator_norm
from jamison.construction import FIBER_DECAY
from jamison.semigroup import evolve, principal_log
from jamison.sequences import unit_point

from blocks import dense_block, fiber_rescaled, fiber_weights

L, I = 8, 3


def _interleave(M):
    """Dense level-major matrix of the I fibers of fiber 1's M; fibers sit on every I-th row and column."""
    dense = np.zeros((L * I, L * I), dtype=complex)
    for i in range(I):
        dense[i::I, i::I] = fiber_rescaled(M, i + 1)
    return dense


@pytest.fixture(scope="module")
def setup():
    cons = build_construction(IndexSequence.factorials(L), L=L, K=L, w=tuple(range(1, L + 1)))
    dense = np.zeros((L * I, L * I), dtype=complex)
    for l in range(1, L + 1):
        for i in range(1, I + 1):
            dense[(l - 1) * I + i - 1, (l - 1) * I + i - 1] = unit_point(cons.lambdas[l - 1])
            if l >= 2:
                dense[(l - 2) * I + i - 1, (l - 1) * I + i - 1] = fiber_weights(cons, i)[l - 2]
    op = assemble_operator(cons, I)
    return cons, op, dense_block(op), dense


def test_stack_is_the_dense_operator(setup):
    _, op, block, dense = setup
    assert op.band.shape == (L - 1,)
    assert (op.fibers, op.levels) == (I, L)
    assert np.array_equal(_interleave(block), dense)


def test_stack_powers_match_dense(setup):
    cons, _, block, dense = setup
    for n in cons.seq.terms:
        got = np.zeros_like(dense)
        for i in range(I):
            got[i::I, i::I] = matrix_power(fiber_rescaled(block, i + 1), n)
        np.testing.assert_allclose(got, matrix_power(dense, n), rtol=1e-12, atol=0)


def test_stack_norms_match_dense(setup):
    _, op, block, dense = setup
    for n in (1, 24, 40320):
        Tn, Dn = matrix_power(block, n), matrix_power(dense, n)
        assert operator_norm(Tn, 1) == pytest.approx(np.abs(Dn).sum(axis=0).max(), rel=1e-12)
        assert operator_norm(Tn, "inf") == pytest.approx(np.abs(Dn).sum(axis=1).max(), rel=1e-12)
        assert operator_norm(Tn, 2) == pytest.approx(np.linalg.norm(Dn, 2), rel=1e-12)
    assert operator_norm(op.shift_part(), 2) == pytest.approx(
        np.linalg.norm(dense - np.diag(np.diag(dense)), 2), rel=1e-12
    )


def test_stack_log_and_evolution_match_dense(setup):
    _, op, _, dense = setup
    sg = principal_log(op)
    assert sg.generator.shape == (L, L)
    G = _interleave(sg.generator)
    assert np.linalg.norm(G - logm(dense), 2) <= 1e-12 * np.linalg.norm(G, 2)
    times = (0.5, 1.0, 7.25, 720.0)
    for t, E in zip(times, evolve(sg, times)):
        want = expm(t * G)
        assert np.linalg.norm(_interleave(E) - want, 2) <= 1e-12 * np.linalg.norm(want, 2)
    rows = list(sg.generator_csv_rows())
    assert rows == [(r, c, z.real, z.imag) for (r, c), z in np.ndenumerate(sg.generator)]


def test_fiber_scaling_identity(setup):
    _, _, block, _ = setup
    k, l = np.indices((L, L))
    decay = FIBER_DECAY
    for n in (1, 6, 720, 40320):
        T1 = matrix_power(block, n)
        for i in range(2, I + 1):
            Ti = matrix_power(fiber_rescaled(block, i), n)
            np.testing.assert_allclose(Ti, T1 * decay ** ((i - 1) * (l - k)), rtol=1e-12, atol=0)
            assert np.array_equal(fiber_rescaled(T1, i), T1 * decay ** ((i - 1) * np.triu(l - k)))
            for p in (1, 2, "inf"):
                assert operator_norm(Ti, p) <= operator_norm(T1, p)
