"""Oracles and tables of an operator that tests take from its record: the dense block, fiber weights, J^n."""

import numpy as np

from jamison.construction import FIBER_DECAY
from jamison.funm import NodeSet, Power, apply
from jamison.sequences import TorusPoint


def dense_block(op) -> np.ndarray:
    """Fiber 1's L x L block: the diagonal rounded from the exact angles, plus the band."""
    return np.diag([TorusPoint(theta).complex_value() for theta in op.thetas]) + np.diag(op.band, k=1)


def fiber_weights(cons, i: int) -> list:
    """Fiber i's shift weights alpha_{i,1..L-1}: fiber 1's times FIBER_DECAY**(i-1)."""
    return [a * FIBER_DECAY ** (i - 1) for a in cons.alphas1]


def unit_band_powers(points, exponents) -> np.ndarray:
    """J^n for each n, stacked, on the points' exact angles: one kernel call on a fresh node set."""
    return apply(NodeSet(tuple(p.theta for p in points)), [Power(n) for n in exponents])
