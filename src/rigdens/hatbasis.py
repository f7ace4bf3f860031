"""Piecewise-linear (hat) discretization of the transfer operator on S^1.

The basis is the partition of unity of unit hats phi_i at equally spaced
nodes a_i = i/k.  The discretized operator replaces the dynamics on each
support [a_{i-1}, a_{i+1}] by its linearization at a_i: the image of phi_i
is a single hat of height 1/|T'(a_i)| and half-width |T'(a_i)|/k centered
at T(a_i), which is then projected back onto the basis.  All projection
coefficients reduce to integrals of products of two hat functions, which
have a closed form (a second difference of cubes).  It is evaluated at a
snap point of the (T(a_i), T'(a_i)) enclosure on a dyadic grid, in
outward-rounded interval arrays: the cubes would overflow int64 on that
grid, so their rounding is charged to the entry's half-width instead (a
few 1e-15 for expanding maps).  The entry is then inflated by a Lipschitz
bound in the snap distance, so every stored entry carries a rigorous error
bound.  All k nodes and their column windows are one array pass; columns
that a window wraps onto twice (only at tiny k) add their enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .intervals import Interval, IntervalArray, iv
from .maps import PiecewiseMap, ly_coefficients_lip
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


def _hat_product_enclosure(delta: np.ndarray, omega: np.ndarray) -> IntervalArray:
    """Elementwise enclosure of the integral of tri(t;1) * tri(t-delta;omega)
    over the line.

    A hat is the second difference of a ramp, tri(t;h) = sum_q c_q
    (t - qh)_+ / h with c = (1, -2, 1), so the integral is
    (1/(6 omega)) sum_{p,q} c_p c_q (delta + p + q omega)_+^3.  The nine
    cubes, their weighted sum and the division run on interval arrays, so
    the enclosure charges their rounding; disjoint supports give exactly 0.
    """
    d = IntervalArray(delta)
    w = IntervalArray(omega)
    shift = {-1: -w, 0: 0, 1: w}
    sums = {1: 0, -1: 0}  # sums of the terms of positive and negative weight
    for p, cp in _SECOND_DIFF:
        for q, cq in _SECOND_DIFF:
            t = d + shift[q] + p
            t = IntervalArray(np.maximum(t.lo, 0.0), np.maximum(t.hi, 0.0))
            sign = 1 if cp * cq > 0 else -1
            sums[sign] = t * t * t * abs(cp * cq) + sums[sign]
    f = (sums[1] - sums[-1]) / (w * 6)
    disjoint = np.abs(delta) >= (w + 1).hi
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


def _merge_columns(key: np.ndarray, entry: IntervalArray):
    """Sorted distinct keys and the enclosure sum of the entries sharing
    each key, added in their order.  Keys repeat only where a node's
    window wraps the circle onto itself (tiny k)."""
    order = np.argsort(key, kind="stable")
    key, lo, hi = key[order], entry.lo[order], entry.hi[order]
    first = np.r_[True, key[1:] != key[:-1]]
    start = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    pos = np.arange(len(key)) - start[run]
    acc_lo, acc_hi = lo[start], hi[start]
    for r in range(1, int(pos.max(initial=0)) + 1):
        sel = pos == r
        acc = IntervalArray(acc_lo[run[sel]], acc_hi[run[sel]]) + \
            IntervalArray(lo[sel], hi[sel])
        acc_lo[run[sel]], acc_hi[run[sel]] = acc.lo, acc.hi
    return key[start], IntervalArray(acc_lo, acc_hi)


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
    u0 = np.rint(u_enc.mid * _SNAP) / _SNAP       # snap points on the grid
    w0 = np.rint(omega_enc.mid * _SNAP) / _SNAP
    if (w0 <= 0).any():
        raise ValueError(f"degenerate image width at node {np.argmax(w0 <= 0)}")
    # Lipschitz inflation: |df| <= (|d delta| + |d omega|) / min omega
    du = abs(u_enc - u0).hi
    dw = abs(omega_enc - w0).hi
    infl = (IntervalArray(du) + dw) / np.minimum(omega_enc.lo, w0)

    # each node's own window of columns j_center - span .. j_center + span
    span = np.ceil(w0).astype(np.int64) + 2
    j_center = np.rint(u0).astype(np.int64)
    width = 2 * span + 1
    row = np.repeat(np.arange(k), width)
    j_real = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width) \
        + (j_center - span)[row]
    f0 = _hat_product_enclosure(u0[row] - j_real, w0[row])
    entry = h_enc[row] * (f0 + infl[row] * Interval(-1.0, 1.0))
    kept = entry.hi > 0.0
    row, entry = row[kept], entry[kept]
    entry = IntervalArray(np.maximum(entry.lo, 0.0), np.minimum(entry.hi, 1.0))
    key, entry = _merge_columns(row * k + j_real[kept] % k, entry)

    data = entry.mid
    eps = float(max(np.max(entry.hi - data, initial=0.0),
                    np.max(data - entry.lo, initial=0.0)))
    counts = np.bincount(key // k, minlength=k)
    csr = sparse.csr_matrix(
        (data, key % k, np.r_[0, np.cumsum(counts)]), shape=(k, k))
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=int(counts.max()),
                      norm_kind="Linf", lin_err=lin_err, m_sup=m_sup)
