"""Reference hat basis, hat projection, hat-product integrals and a
node-by-node assembly for tests of the sup-norm path.

The assembly never evaluates basis functions or projects node values, and
it evaluates the hat products by float Simpson sums plus a proved radius
on arrays; the exact closed form and Simpson sums in rationals here are
independent oracles for its entries, and the tests use the projection
properties the certificate relies on.  ``assemble_reference`` is the
scalar per-node form of the assembly: the same float Simpson sum and
radius on the scalar ``Interval`` enclosures of T(a_i) and T'(a_i), one
chain per entry.
"""

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from rigdens._csr import CSR
from rigdens.hatbasis import LinfMatrix, _check_circle
from rigdens.intervals import _ETA, _U, Interval, _gamma, from_fraction, iv
from rigdens.maps import PiecewiseMap, ly_coefficients_lip

_SECOND_DIFF = ((-1, 1), (0, -2), (1, 1))  # (shift, weight) of a hat in ramps
_GRID = 1 << 24  # denominator of the dyadic grid of the exact closed form


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


def hat_product_integral(delta: Fraction, omega: Fraction) -> Fraction:
    """Exact integral of tri(t;1) * tri(t-delta;omega) over the line.

    A hat is the second difference of a ramp, tri(t;h) = sum_q c_q
    (t - qh)_+ / h with c = (1, -2, 1), so the integral is
    (1/(6 omega)) sum_{p,q} c_p c_q (delta + p + q omega)_+^3, summed here
    in integers on a dyadic grid.  delta and omega must lie on that grid.
    """
    d, w = delta * _GRID, omega * _GRID
    if d.denominator != 1 or w.denominator != 1:
        raise ValueError("hat product arguments must lie on the dyadic grid")
    d, w = d.numerator, w.numerator
    if abs(d) >= _GRID + w:  # disjoint supports
        return Fraction(0)
    total = 0
    for p, cp in _SECOND_DIFF:
        for q, cq in _SECOND_DIFF:
            t = d + p * _GRID + q * w
            if t > 0:
                total += cp * cq * t ** 3
    return Fraction(total, 6 * w * _GRID * _GRID)


# the rounding ledger c = gamma_32 + 32 eta, c u, and the factor 1 + gamma_8
# that covers the radius' own rounding (hatbasis._hat_product_enclosure)
_ROUND = (_gamma(32, _U) + iv(32 * _ETA)).hi
_ROUND_U = (iv(_ROUND) * iv(_U)).hi
_RHO_UP = (iv(1) + _gamma(8, _U)).hi


def hat_product_interval(d: Interval, w: Interval) -> Interval:
    """Scalar form of ``hatbasis._hat_product_enclosure``: Simpson's rule in
    floats on the pieces of the overlap at the midpoints of d and w > 0,
    widened by the rounding ledger and the mean-value term, in the same
    operation order."""
    if abs(d).lo >= (w + 1).hi:  # certainly disjoint supports
        return iv(0)
    delta, omega = d.mid, w.mid
    lo = max(delta - omega, -1.0)
    hi = max(min(delta + omega, 1.0), lo)
    cut_1 = min(max(min(delta, 0.0), lo), hi)
    cut_2 = min(max(max(delta, 0.0), lo), hi)

    def value(t):
        return (1.0 - abs(t)) * (1.0 - abs(t - delta) / omega)

    v_1, v_2 = value(cut_1), value(cut_2)
    f = ((cut_1 - lo) * (4.0 * value(0.5 * (lo + cut_1)) + v_1)
         + (cut_2 - cut_1) * (v_1 + 4.0 * value(0.5 * (cut_1 + cut_2)) + v_2)
         + (hi - cut_2) * (v_2 + 4.0 * value(0.5 * (cut_2 + hi)))) / 6.0
    r = max(delta - d.lo, d.hi - delta) + max(omega - w.lo, w.hi - omega)
    rho = (_ROUND + (r + _ROUND_U) / w.lo) * _RHO_UP
    return Interval(max(math.nextafter(f - rho, -math.inf), 0.0),
                    math.nextafter(f + rho, math.inf))


def branch_index(m: PiecewiseMap, x) -> int:
    """Index of the first branch of m whose endpoint brackets admit x."""
    for i, b in enumerate(m.branches):
        if b.lo.lo <= x <= b.hi.hi:
            return i
    raise ValueError(f"point {x} outside [0,1]")


def assemble_reference(m: PiecewiseMap, k: int) -> LinfMatrix:
    """Node-by-node scalar form of ``hatbasis.assemble_linearized``."""
    _check_circle(m)
    coeffs = ly_coefficients_lip(m)
    lin_err = (iv(4) * coeffs.distortion / (iv(k) * iv(k))).hi
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    eps = 0.0
    nnz_max = 0
    for i in range(k):
        a = Fraction(i, k)
        br = m.branches[branch_index(m, a)]
        s_enc = br.deriv_iv(from_fraction(a))
        if s_enc.contains_zero():
            raise ValueError(f"T' enclosure touches 0 at node {i}")
        c_enc = br.value_iv(from_fraction(a))
        h_enc = iv(1) / abs(s_enc)
        u_enc = iv(k) * c_enc
        omega_enc = abs(s_enc)
        span = int(math.ceil(omega_enc.hi + u_enc.width)) + 2
        j_center = round(u_enc.mid)
        row: List[Tuple[int, Interval]] = []
        for j_real in range(j_center - span, j_center + span + 1):
            entry = h_enc * hat_product_interval(u_enc - j_real, omega_enc)
            if entry.hi <= 0.0:
                continue
            entry = Interval(max(entry.lo, 0.0), min(entry.hi, 1.0))
            row.append((j_real % k, entry))
        cols: dict = {}
        for col, entry in row:
            cols[col] = cols.get(col, iv(0)) + entry
        for col in sorted(cols):
            entry = cols[col]
            val = entry.mid
            data.append(val)
            indices.append(col)
            eps = max(eps, entry.hi - val, val - entry.lo)
        nnz_max = max(nnz_max, len(cols))
        indptr.append(len(indices))
    csr = CSR(np.array(data), np.array(indices, dtype=np.int64),
              np.array(indptr, dtype=np.int64), (k, k))
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz_max,
                      lin_err=lin_err, m_sup=coeffs.m_sup.hi)
