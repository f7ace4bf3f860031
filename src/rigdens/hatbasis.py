"""Piecewise-linear (hat) discretization of the transfer operator on S^1.

The basis is the partition of unity of unit hats phi_i at equally spaced
nodes a_i = i/k.  The discretized operator replaces the dynamics on each
support [a_{i-1}, a_{i+1}] by its linearization at a_i: the image of phi_i
is a single hat of height 1/|T'(a_i)| and half-width |T'(a_i)|/k centered
at T(a_i), which is then projected back onto the basis.  All projection
coefficients reduce to integrals of products of two hat functions, which
have a closed form (a second difference of cubes).  It is evaluated on
the outward-rounded enclosures of T(a_i) and T'(a_i) themselves, in
interval arrays, so every stored entry carries a rigorous error bound
that charges both the node-value enclosures and the rounding of the
cubes.  All k nodes and their column windows are one array pass; columns
that a window wraps onto twice (only at tiny k) add their enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from .intervals import IntervalArray, iv
from .maps import PiecewiseMap, ly_coefficients_lip
from .ulam import TransitionMatrix, _entry_sums

__all__ = ["LinfMatrix", "assemble_linearized"]

_SECOND_DIFF = ((-1, 1), (0, -2), (1, 1))  # (shift, weight) of a hat in ramps


@dataclass(frozen=True)
class LinfMatrix(TransitionMatrix):
    """Transition matrix of the linearized hat operator, with the
    per-basis-function linearization error 4/k^2 sup|T''/(T')^2| and the
    sup-norm power bound needed by the certificate."""

    norm_kind: ClassVar[str] = "Linf"
    lin_err: float = 0.0
    m_sup: float = 1.0

    @property
    def step_error(self) -> float:
        """The sup-norm step charge 2 M^2 (eps + lin_err), rounded up."""
        return (iv(2) * iv(self.m_sup) * iv(self.m_sup)
                * (iv(self.eps) + iv(self.lin_err))).hi


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


def _hat_product_enclosure(d: IntervalArray, w: IntervalArray) -> IntervalArray:
    """Elementwise enclosure of the integral of tri(t;1) * tri(t-delta;omega)
    over the line, for delta in d and omega in w (w > 0).

    A hat is the second difference of a ramp, tri(t;h) = sum_q c_q
    (t - qh)_+ / h with c = (1, -2, 1), so the integral is
    (1/(6 omega)) sum_{p,q} c_p c_q (delta + p + q omega)_+^3.  The nine
    cubes, their weighted sum and the division run on interval arrays, so
    the enclosure charges their rounding and the widths of d and w;
    certainly disjoint supports, |delta| >= omega + 1, give exactly 0.
    """
    shift = {-1: -w, 0: 0, 1: w}
    sums = {1: 0, -1: 0}  # sums of the terms of positive and negative weight
    for p, cp in _SECOND_DIFF:
        for q, cq in _SECOND_DIFF:
            t = d + shift[q] + p
            t = IntervalArray(np.maximum(t.lo, 0.0), np.maximum(t.hi, 0.0))
            sign = 1 if cp * cq > 0 else -1
            sums[sign] = t * t * t * abs(cp * cq) + sums[sign]
    f = (sums[1] - sums[-1]) / (w * 6)
    disjoint = abs(d).lo >= (w + 1).hi
    return IntervalArray(np.where(disjoint, 0.0, f.lo),
                         np.where(disjoint, 0.0, f.hi))


def _node_enclosures(m: PiecewiseMap, k: int):
    """Enclosures of T(a_i) and T'(a_i) at every node a_i = i/k, each node
    on the first branch whose endpoint brackets admit it."""
    nodes = np.arange(k)
    x = IntervalArray(nodes.astype(np.float64)) / k
    value = np.empty((2, k))
    deriv = np.empty((2, k))
    free = np.ones(k, dtype=bool)
    for br in m.branches:
        sel = free & (nodes >= math.ceil(br.lo.lo * k)) & \
            (nodes <= math.floor(br.hi.hi * k))
        xs = x[sel]
        v, d = br.value_iv(xs), br.deriv_iv(xs)
        value[0, sel], value[1, sel] = v.lo, v.hi
        deriv[0, sel], deriv[1, sel] = d.lo, d.hi
        free &= ~sel
    return IntervalArray(*value), IntervalArray(*deriv)


def assemble_linearized(m: PiecewiseMap, k: int) -> LinfMatrix:
    """Raw (un-markovized) matrix of the node-linearized hat operator.

    Row i holds the projection coefficients of the image of phi_i; exact
    row sums are 1, so the stored float rows sum to 1 up to the recorded
    per-entry error bound eps.  All nodes and all entries of their column
    windows j_center(i) +- span(i) are enclosed in one interval-array pass.
    The linearization error and the power bound M come from the map's
    cached distortion and |T'| enclosures.
    """
    _check_circle(m)
    lin_err = (iv(4) * m.distortion_sup / (iv(k) * iv(k))).hi
    m_sup = ly_coefficients_lip(m).m_sup.hi

    c_enc, s_enc = _node_enclosures(m, k)
    touching = s_enc.contains_zero()
    if touching.any():
        raise ValueError(f"T' enclosure touches 0 at node {np.argmax(touching)}")
    h_enc = 1 / abs(s_enc)
    u_enc = k * c_enc                             # image position, t units
    omega_enc = abs(s_enc)                        # image half-width, t units

    # each node's own window of columns j_center - span .. j_center + span:
    # |u - j_center| <= 1/2 + width(u_enc), so it holds every j with
    # |u - j| < omega + 1
    span = np.ceil(omega_enc.hi + u_enc.width).astype(np.int64) + 2
    j_center = np.rint(u_enc.mid).astype(np.int64)
    width = 2 * span + 1
    row = np.repeat(np.arange(k), width)
    j_real = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width) \
        + (j_center - span)[row]
    entry = h_enc[row] * _hat_product_enclosure(u_enc[row] - j_real, omega_enc[row])
    kept = entry.hi > 0.0
    row, entry = row[kept], entry[kept]
    key, entry = _entry_sums(row * k + j_real[kept] % k,
                             np.maximum(entry.lo, 0.0), np.minimum(entry.hi, 1.0))

    data = entry.mid
    eps = float(max(np.max(entry.hi - data, initial=0.0),
                    np.max(data - entry.lo, initial=0.0)))
    counts = np.bincount(key // k, minlength=k)
    csr = sparse.csr_matrix(
        (data, key % k, np.r_[0, np.cumsum(counts)]), shape=(k, k))
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=int(counts.max()),
                      lin_err=lin_err, m_sup=m_sup)
