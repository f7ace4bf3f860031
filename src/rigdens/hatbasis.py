"""Piecewise-linear (hat) discretization of the transfer operator on S^1.

The basis is the partition of unity of unit hats phi_i at equally spaced
nodes a_i = i/k.  The discretized operator replaces the dynamics on each
support [a_{i-1}, a_{i+1}] by its linearization at a_i: the image of phi_i
is a single hat of height 1/|T'(a_i)| and half-width |T'(a_i)|/k centered
at T(a_i), which is then projected back onto the basis.  All projection
coefficients reduce to integrals of products of two hat functions, which
are evaluated exactly in rational arithmetic at a rational snap point of
the (T(a_i), T'(a_i)) enclosure and inflated by a Lipschitz bound in the
snap distance, so every stored entry carries a rigorous error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from .intervals import Interval, from_fraction, iv
from .maps import LYCoefficientsLip, PiecewiseMap, ly_coefficients_lip
from .ulam import TransitionMatrix

__all__ = ["LinfMatrix", "assemble_linearized"]

_SNAP = 1 << 24  # denominator of the rational snap grid for entry formulas


@dataclass(frozen=True)
class LinfMatrix(TransitionMatrix):
    """Transition matrix of the linearized hat operator, with the
    per-basis-function linearization error 4/k^2 sup|T''/(T')^2| and the
    sup-norm power bound needed by the certificate."""

    lin_err: float = 0.0
    m_sup: float = 1.0


def _tri_value(t: Fraction, center: Fraction, halfwidth: Fraction) -> Fraction:
    s = abs(t - center)
    if s >= halfwidth:
        return Fraction(0)
    return 1 - s / halfwidth


def _hat_product_integral(delta: Fraction, omega: Fraction) -> Fraction:
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


def _snap(x: float) -> Fraction:
    return Fraction(round(x * _SNAP), _SNAP)


def _node_branch(m: PiecewiseMap, a: Fraction):
    for br in m.branches:
        if br.lo.enc.lo <= a <= br.hi.enc.hi:
            return br
    raise ValueError(f"node {a} outside every branch domain")


def _check_circle(m: PiecewiseMap) -> None:
    if not m.circle:
        raise ValueError("sup-norm assembly needs a circle map")
    b0, b1 = m.branches[0], m.branches[-1]
    v0 = b0.value_iv(iv(0))
    v1 = b1.value_iv(iv(1))
    gap = v1 - v0
    if abs(gap.mid - round(gap.mid)) > 1e-9:
        raise ValueError("map endpoints do not match on the circle")
    d0 = b0.deriv_iv(iv(0))
    d1 = b1.deriv_iv(iv(1))
    if not d0.overlaps(Interval(d1.lo - 1e-9, d1.hi + 1e-9)):
        raise ValueError("derivative jumps across 0 ~ 1: not C^1 on the circle")
    for left, right in zip(m.branches, m.branches[1:]):
        at = right.lo.enc
        dl = left.deriv_iv(at)
        dr = right.deriv_iv(at)
        if not dl.overlaps(Interval(dr.lo - 1e-9, dr.hi + 1e-9)):
            raise ValueError(
                f"derivative jumps at breakpoint {at}: not C^1 on the circle"
            )


def assemble_linearized(m: PiecewiseMap, k: int,
                        coeffs: Optional[LYCoefficientsLip] = None) -> LinfMatrix:
    """Raw (un-markovized) matrix of the node-linearized hat operator.

    Row i holds the projection coefficients of the image of phi_i; exact
    row sums are 1, so the stored float rows sum to 1 up to the recorded
    per-entry error bound eps.
    """
    _check_circle(m)
    if coeffs is None:
        coeffs = ly_coefficients_lip(m)
    lin_err = (iv(4) * coeffs.distortion / (iv(k) * iv(k))).hi
    m_sup = coeffs.m_sup.hi

    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    eps = 0.0
    nnz_max = 0
    for i in range(k):
        a = Fraction(i, k)
        br = _node_branch(m, a)
        s_enc = br.deriv_iv(from_fraction(a))
        if s_enc.contains_zero():
            raise ValueError(f"T' enclosure touches 0 at node {i}")
        c_enc = br.value_iv(from_fraction(a))
        h_enc = iv(1) / abs(s_enc)
        u_enc = iv(k) * c_enc                     # image position, t units
        omega_enc = abs(s_enc)                    # image half-width, t units
        u0 = _snap(u_enc.mid)
        w0 = _snap(omega_enc.mid)
        if w0 <= 0:
            raise ValueError(f"degenerate image width at node {i}")
        # Lipschitz inflation: |df| <= (|d delta| + |d omega|) / min omega
        du = max(u_enc.hi - float(u0), float(u0) - u_enc.lo, 0.0)
        dw = max(omega_enc.hi - float(w0), float(w0) - omega_enc.lo, 0.0)
        w_min = min(omega_enc.lo, float(w0))
        infl = iv(du + dw) / iv(w_min)
        span = int(math.ceil(float(w0))) + 2
        j_center = int(round(float(u0)))
        row: List[Tuple[int, Interval]] = []
        for j_real in range(j_center - span, j_center + span + 1):
            f0 = _hat_product_integral(u0 - j_real, w0)
            entry = h_enc * (from_fraction(f0) + infl * Interval(-1.0, 1.0))
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
    csr = sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(k, k),
    )
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz_max, norm_kind="Linf",
                      lin_err=lin_err, m_sup=m_sup)

