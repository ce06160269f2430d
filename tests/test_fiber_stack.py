"""The fiber-block stack against the dense level-major operator it stands for.

The reference is the LI x LI matrix with slot (i, l) at row (l-1)*I + (i-1),
built here entry by entry from the construction's weights.
"""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from jamison import IndexSequence, assemble_operator, build_construction, matrix_power, operator_norm
from jamison.construction import FIBER_DECAY
from jamison.semigroup import evolve, principal_log

L, I = 8, 3


def _interleave(stack):
    """Dense level-major matrix of a (I, L, L) stack; fibers sit on every I-th row and column."""
    fibers, levels, _ = stack.shape
    dense = np.zeros((levels * fibers, levels * fibers), dtype=complex)
    for i in range(fibers):
        dense[i::fibers, i::fibers] = stack[i]
    return dense


@pytest.fixture(scope="module")
def setup():
    cons = build_construction(IndexSequence.factorials(L), L=L, K=L, w=tuple(range(1, L + 1)))
    dense = np.zeros((L * I, L * I), dtype=complex)
    for l in range(1, L + 1):
        for i in range(1, I + 1):
            dense[(l - 1) * I + i - 1, (l - 1) * I + i - 1] = cons.lambdas[l - 1].complex_value()
            if l >= 2:
                dense[(l - 2) * I + i - 1, (l - 1) * I + i - 1] = cons.alpha(i, l - 1)
    return cons, assemble_operator(cons, L, I), dense


def test_stack_is_the_dense_operator(setup):
    _, op, dense = setup
    assert op.blocks.shape == (I, L, L)
    assert (op.fibers, op.levels) == (I, L)
    assert np.array_equal(_interleave(op.blocks), dense)


def test_stack_powers_match_dense(setup):
    cons, op, dense = setup
    for n in cons.seq.terms:
        got = _interleave(matrix_power(op.blocks, n))
        np.testing.assert_allclose(got, matrix_power(dense, n), rtol=1e-12, atol=0)


def test_stack_norms_match_dense(setup):
    cons, op, dense = setup
    for n in (1, 24, 40320):
        Tn, Dn = matrix_power(op.blocks, n), matrix_power(dense, n)
        assert operator_norm(Tn, 1) == pytest.approx(np.abs(Dn).sum(axis=0).max(), rel=1e-12)
        assert operator_norm(Tn, "inf") == pytest.approx(np.abs(Dn).sum(axis=1).max(), rel=1e-12)
        assert operator_norm(Tn, 2) == pytest.approx(np.linalg.norm(Dn, 2), rel=1e-12)
    assert operator_norm(op.shift_part(), 2) == pytest.approx(
        np.linalg.norm(dense - np.diag(np.diag(dense)), 2), rel=1e-12
    )


def test_stack_log_and_evolution_match_dense(setup):
    _, op, dense = setup
    sg = principal_log(op)
    assert sg.generator.shape == (I, L, L)
    G = _interleave(sg.generator)
    assert np.linalg.norm(G - logm(dense), 2) <= 1e-12 * np.linalg.norm(G, 2)
    for t in (0.5, 1.0, 7.25, 720.0):
        want = expm(t * G)
        assert np.linalg.norm(_interleave(evolve(sg, t)) - want, 2) <= 1e-12 * np.linalg.norm(want, 2)
    rows = sg.generator_csv_rows()
    size = L * I
    assert rows == [(r, c, G[r, c].real, G[r, c].imag) for r in range(size) for c in range(size)]


def test_fiber_scaling_identity(setup):
    cons, op, _ = setup
    k, l = np.indices((L, L))
    decay = FIBER_DECAY
    for n in (1, 6, 720, 40320):
        Tn = matrix_power(op.blocks, n)
        for i in range(2, I + 1):
            want = Tn[0] * decay ** ((i - 1) * (l - k))
            np.testing.assert_allclose(Tn[i - 1], want, rtol=1e-12, atol=0)
