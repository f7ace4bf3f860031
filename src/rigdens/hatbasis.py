"""Piecewise-linear (hat) discretization of the transfer operator on S^1.

The basis is the partition of unity of unit hats phi_i at equally spaced
nodes a_i = i/k.  The discretized operator replaces the dynamics on each
support [a_{i-1}, a_{i+1}] by its linearization at a_i: the image of phi_i
is a single hat of height 1/|T'(a_i)| and half-width |T'(a_i)|/k centered
at T(a_i), which is then projected back onto the basis.  All projection
coefficients reduce to integrals of products of two hat functions, which
have a closed form (a second difference of cubes) evaluated exactly in
integers at a snap point of the (T(a_i), T'(a_i)) enclosure on a dyadic
grid, and inflated by a Lipschitz bound in the snap distance, so every
stored entry carries a rigorous error bound.
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
_SECOND_DIFF = ((-1, 1), (0, -2), (1, 1))  # (shift, weight) of a hat in ramps


@dataclass(frozen=True)
class LinfMatrix(TransitionMatrix):
    """Transition matrix of the linearized hat operator, with the
    per-basis-function linearization error 4/k^2 sup|T''/(T')^2| and the
    sup-norm power bound needed by the certificate."""

    lin_err: float = 0.0
    m_sup: float = 1.0


def _hat_product_integral(delta: Fraction, omega: Fraction) -> Fraction:
    """Exact integral of tri(t;1) * tri(t-delta;omega) over the line.

    A hat is the second difference of a ramp, tri(t;h) = sum_q c_q
    (t - qh)_+ / h with c = (1, -2, 1), so the integral is
    (1/(6 omega)) sum_{p,q} c_p c_q (delta + p + q omega)_+^3, summed here
    in integers on the snap grid.  delta and omega must lie on that grid.
    """
    d, w = delta * _SNAP, omega * _SNAP
    if d.denominator != 1 or w.denominator != 1:
        raise ValueError("hat product arguments must lie on the snap grid")
    d, w = d.numerator, w.numerator
    if abs(d) >= _SNAP + w:  # disjoint supports
        return Fraction(0)
    total = 0
    for p, cp in _SECOND_DIFF:
        for q, cq in _SECOND_DIFF:
            t = d + p * _SNAP + q * w
            if t > 0:
                total += cp * cq * t ** 3
    return Fraction(total, 6 * w * _SNAP * _SNAP)


def _snap(x: float) -> Fraction:
    return Fraction(round(x * _SNAP), _SNAP)


def _check_circle(m: PiecewiseMap) -> None:
    """Certify that the map is C^1 on the circle: the endpoint values differ
    by an integer, and at 0 ~ 1 and at every breakpoint the derivative
    enclosures from both sides overlap (both enclose the same value)."""
    if not m.circle:
        raise ValueError("sup-norm assembly needs a circle map")
    b0, b1 = m.branches[0], m.branches[-1]
    gap = b1.value_iv(iv(1)) - b0.value_iv(iv(0))
    if math.floor(gap.hi) < gap.lo:
        raise ValueError("map endpoints do not match on the circle")
    if not b0.deriv_iv(iv(0)).overlaps(b1.deriv_iv(iv(1))):
        raise ValueError("derivative jumps across 0 ~ 1: not C^1 on the circle")
    for left, right in zip(m.branches, m.branches[1:]):
        at = right.lo.enc
        if not left.deriv_iv(at).overlaps(right.deriv_iv(at)):
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
        br = m.branches[m.branch_index(a)]
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

