"""Reference hat basis and hat projection for tests of the sup-norm path.

The assembly never evaluates basis functions or projects node values; the
tests use these two definitions as independent oracles for its entries and
for the projection properties the certificate relies on.
"""

from typing import Sequence

import numpy as np


class HatBasis:
    """k unit hats on equally spaced circle nodes; sum phi_i = 1 pointwise."""

    def __init__(self, k: int):
        self.k = k

    def eval_hat(self, i: int, x: float) -> float:
        """phi_i(x) with wrap-around support [a_{i-1}, a_{i+1}]."""
        k = self.k
        t = (x * k - i) % k
        if t > k / 2:
            t -= k
        return max(0.0, 1.0 - abs(t))


def project_hat(node_values: Sequence[float]) -> np.ndarray:
    """Projection coefficients of the piecewise-linear function through
    the given node values: c_j = (f_{j-1} + 4 f_j + f_{j+1}) / 6."""
    f = np.asarray(node_values, dtype=float)
    return (np.roll(f, 1) + 4.0 * f + np.roll(f, -1)) / 6.0
