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
cubes.  The nodes' column windows are enclosed and summed in blocks of
_NODE_BLOCK nodes, one array pass each, so the working set is sized by
the block and only the stored matrix grows with k; columns that a window
wraps onto twice (only at tiny k) add their enclosures.  A row's terms
all come from its own node, so the blocks give the matrix of one pass
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._csr import CSR
from .intervals import IntervalArray, iv, ratio_array
from .maps import PiecewiseMap, ly_coefficients_lip
from .ulam import TransitionMatrix, _entry_sums, _stored_midpoints

__all__ = ["LinfMatrix", "assemble_linearized"]

_SECOND_DIFF = ((-1, 1), (0, -2), (1, 1))  # (shift, weight) of a hat in ramps
_NODE_BLOCK = 1 << 12  # nodes whose entries are enclosed and summed at once


@dataclass(frozen=True)
class LinfMatrix(TransitionMatrix):
    """Transition matrix of the linearized hat operator, with the
    per-basis-function linearization error 4/k^2 sup|T''/(T')^2| and the
    sup-norm power bound needed by the certificate."""

    norm_kind: ClassVar[str] = "Linf"
    lin_err: float
    m_sup: float

    @property
    def step_error(self) -> float:
        """The sweep's per-step inflation 2 M^2 (eps + lin_err), rounded up;
        the matrix term charges N step_error (||v||_inf + rho)
        (rigdens.certify tabulates the terms)."""
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
    Shifts by 0 and weights of 1 are exact, so they are skipped.
    """
    shifted = {-1: d - w, 0: d, 1: d + w}  # delta + q omega
    sums = {}  # sums of the terms of positive (True) and negative weight
    for p, cp in _SECOND_DIFF:
        for q, cq in _SECOND_DIFF:
            t = shifted[q] + p if p else shifted[q]
            t = IntervalArray(np.maximum(t.lo, 0.0), np.maximum(t.hi, 0.0))
            term = t * t * t
            if abs(cp * cq) != 1:
                term = term * abs(cp * cq)
            sign = cp * cq > 0
            sums[sign] = term + sums[sign] if sign in sums else term
    f = (sums[True] - sums[False]) / (w * 6)
    disjoint = abs(d).lo >= (w + 1).hi
    return IntervalArray(np.where(disjoint, 0.0, f.lo),
                         np.where(disjoint, 0.0, f.hi))


def _column_window(u_enc: IntervalArray, omega_enc: IntervalArray):
    """(first, count) per node: the columns j = first .. first + count - 1
    at which _hat_product_enclosure(u_enc - j, omega_enc) need not be 0.

    It is exactly 0 where |u_enc - j| >= reach = (omega_enc + 1).hi, a
    float; its interval subtraction rounds u - j outward, so that holds for
    every j <= u.lo - reach and every j >= u.hi + reach.  The ends of the
    window round those bounds outward too, so it holds every column whose
    entry can be nonzero and at most one more on each side."""
    reach = (omega_enc + 1).hi
    first = np.floor((u_enc - reach).lo).astype(np.int64) + 1
    last = np.ceil((u_enc + reach).hi).astype(np.int64) - 1
    return first, last - first + 1


def _node_enclosures(m: PiecewiseMap, k: int):
    """Enclosures of T(a_i) and T'(a_i) at every node a_i = i/k, each node
    on the first branch whose endpoint brackets admit it."""
    nodes = np.arange(k)
    x = ratio_array(nodes, k)
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
    per-entry error bound eps.  The entries of the nodes' column windows
    (_column_window) are enclosed, summed and rounded to their stored
    midpoints one block of _NODE_BLOCK nodes at a time.
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

    # each node's own window, the columns j with |u - j| < omega + 1 up to
    # outward rounding; the entries outside it are exactly 0
    first, count = _column_window(u_enc, omega_enc)
    cols, data, counts, eps = [], [], [], 0.0
    for start in range(0, k, _NODE_BLOCK):
        # a row's terms all come from its own node, so a block of nodes
        # holds its rows whole, and its rows follow the previous block's
        n = count[start:start + _NODE_BLOCK]
        row = np.repeat(np.arange(start, start + len(n)), n)
        j_real = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n) \
            + first[row]
        entry = h_enc[row] * _hat_product_enclosure(u_enc[row] - j_real,
                                                    omega_enc[row])
        kept = entry.hi > 0.0
        row, entry = row[kept], entry[kept]
        key, entry = _entry_sums(row * k + j_real[kept] % k,
                                 np.maximum(entry.lo, 0.0),
                                 np.minimum(entry.hi, 1.0))
        mid, err = _stored_midpoints(entry)
        cols.append(key % k)
        data.append(mid)
        counts.append(np.bincount(key // k - start, minlength=len(n)))
        eps = max(eps, err)

    counts = np.concatenate(counts)
    csr = CSR(np.concatenate(data), np.concatenate(cols),
              np.r_[0, np.cumsum(counts)], (k, k))
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=int(counts.max()),
                      lin_err=lin_err, m_sup=m_sup)
