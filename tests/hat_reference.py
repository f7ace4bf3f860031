"""Reference hat basis, hat projection and hat-product integral for tests
of the sup-norm path.

The assembly never evaluates basis functions or projects node values, and
it sums the hat products in closed form; the tests use these definitions
as independent oracles for its entries and for the projection properties
the certificate relies on.
"""

from fractions import Fraction
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


def _tri_value(t: Fraction, center: Fraction, halfwidth: Fraction) -> Fraction:
    s = abs(t - center)
    if s >= halfwidth:
        return Fraction(0)
    return 1 - s / halfwidth


def simpson_hat_product(delta: Fraction, omega: Fraction) -> Fraction:
    """Exact integral of tri(t;1) * tri(t-delta;omega) over the line.

    Simpson on the common refinement of the two kink sets; the integrand is
    piecewise quadratic there, so Simpson is exact.
    """
    lo = max(Fraction(-1), delta - omega)
    hi = min(Fraction(1), delta + omega)
    if hi <= lo:
        return Fraction(0)
    pts = sorted({lo, hi, *(p for p in (Fraction(0), delta) if lo < p < hi)})
    total = Fraction(0)
    for p, q in zip(pts, pts[1:]):
        m = (p + q) / 2
        fp = _tri_value(p, Fraction(0), Fraction(1)) * _tri_value(p, delta, omega)
        fm = _tri_value(m, Fraction(0), Fraction(1)) * _tri_value(m, delta, omega)
        fq = _tri_value(q, Fraction(0), Fraction(1)) * _tri_value(q, delta, omega)
        total += (q - p) * (fp + 4 * fm + fq) / 6
    return total
