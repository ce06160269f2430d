"""The dense fiber block of an operator, for tests that take it as an oracle."""

import numpy as np

from jamison.sequences import TorusPoint


def dense_block(op) -> np.ndarray:
    """Fiber 1's L x L block: the diagonal rounded from the exact angles, plus the band."""
    return np.diag([TorusPoint(theta).complex_value() for theta in op.thetas]) + np.diag(op.band, k=1)
