"""Oracles and tables of an operator that tests take from its record: the dense block, fiber weights and
blocks, J^n and T^t."""

import numpy as np

from jamison.construction import FIBER_DECAY
from jamison.funm import NodeSet, Power, apply, exact_time
from jamison.sequences import unit_point


def dense_block(op) -> np.ndarray:
    """Fiber 1's L x L block: the diagonal rounded from the exact angles, plus the band."""
    return np.diag([unit_point(theta) for theta in op.thetas]) + np.diag(op.band, k=1)


def fiber_weights(cons, i: int) -> list:
    """Fiber i's shift weights alpha_{i,1..L-1}: fiber 1's times FIBER_DECAY**(i-1)."""
    return [a * FIBER_DECAY ** (i - 1) for a in cons.alphas1]


def fiber_rescaled(M: np.ndarray, fiber: int) -> np.ndarray:
    """The given fiber's block of a function of the operator, from fiber 1's block M.

    Entry (k, l), k < l, is multiplied by FIBER_DECAY**((fiber-1)(l-k)), a
    power of two, so it keeps its bits unless it falls below the normal
    range; the diagonal and the lower part are M's.  The complex-by-real
    product decides the sign of each zero entry, which the rebuild of the
    level-major generator file relies on.
    """
    k, l = np.indices(M.shape)
    return M * FIBER_DECAY ** ((fiber - 1) * np.maximum(l - k, 0))


def operator_power(op, t) -> np.ndarray:
    """T^t on op's fiber block: J^t on its exact angles times its band products."""
    return apply(op.nodes, [Power(exact_time(t))])[0] * op.products


def unit_band_powers(thetas, exponents) -> np.ndarray:
    """J^n for each n, stacked, on these exact angles: one kernel call on a fresh node set."""
    return apply(NodeSet(tuple(thetas)), [Power(n) for n in exponents])
