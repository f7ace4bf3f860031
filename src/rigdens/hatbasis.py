"""Piecewise-linear (hat) discretization of the transfer operator on S^1.

The basis is the partition of unity of unit hats phi_i at equally spaced
nodes a_i = i/k.  The discretized operator replaces the dynamics on each
support [a_{i-1}, a_{i+1}] by its linearization at a_i: the image of phi_i
is a single hat of height 1/|T'(a_i)| and half-width |T'(a_i)|/k centered
at T(a_i), which is then projected back onto the basis.  All projection
coefficients reduce to integrals of products of two hat functions.  Each
is evaluated once in float64, by Simpson's rule on the at most three
pieces of the two hats' overlap, on which the product is quadratic, at
the midpoints of the outward-rounded enclosures of T(a_i) and T'(a_i);
a radius proved in _hat_product_enclosure (a rounding ledger plus a
mean-value term for the enclosures' widths) makes it a rigorous
enclosure, so every stored entry carries an error bound that charges
both the node-value enclosures and the float evaluation.  The nodes'
column windows are enclosed and summed in blocks of
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
from .intervals import _ETA, _U, IntervalArray, _gamma, iv, ratio_array
from .maps import PiecewiseMap, ly_coefficients_lip
from .ulam import TransitionMatrix, _entry_sums, _stored_midpoints

__all__ = ["LinfMatrix", "assemble_linearized"]

_NODE_BLOCK = 1 << 12  # nodes whose entries are enclosed and summed at once
# the hat product's rounding ledger c, c u and rho's own rounding factor
# (_hat_product_enclosure)
_ROUND = (_gamma(32, _U) + iv(32 * _ETA)).hi
_ROUND_U = (iv(_ROUND) * iv(_U)).hi
_RHO_UP = (iv(1) + _gamma(8, _U)).hi


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
    """Elementwise enclosure of F(delta, omega), the integral over the line
    of tri(t) tri((t - delta)/omega), tri(t) = max(0, 1 - |t|), for delta
    in d and omega in w (w > 0).

    F is evaluated once per element in float64, at the midpoints delta and
    omega of d and w: Simpson's rule on the pieces of the overlap [a, b],
    a = max(-1, delta - omega) and b = min(1, delta + omega), cut at 0 and
    delta.  On each piece A(t) = 1 - |t| and B(t) = 1 - |t - delta|/omega
    are affine, so the integrand A B is quadratic there and Simpson's rule
    exact; A B vanishes at a and b, so those two values are taken as 0.
    Every term is nonnegative and O(1).  With u = 2^-53, eta = 2^-1074,
    c = gamma_32 + 32 eta (_ROUND) and r_d, r_w the distances from the
    midpoints to the far ends of d and w, the enclosure is F^ +- rho,

        rho = c + (r_d + r_w + c u) / w.lo,

    each end one float outward and the lower one clipped at 0.  rho is
    summed in floats; the factor 1 + gamma_8 (_RHO_UP) it is multiplied by
    covers that sum's six roundings of nonnegative terms, its own
    included, and an underflow of its quotient.  Certainly disjoint
    supports, |delta| >= omega + 1, give exactly 0.

    Mean-value term.  On the support of tri((t - delta)/omega) its delta
    derivative is +-1/omega and its omega derivative |t - delta|/omega^2
    lies in [0, 1/omega]; as tri integrates to 1, |dF/d delta| <= 1/omega
    and 0 <= dF/d omega <= 1/omega.  So F on the box d x w lies within
    (r_d + r_w)/w.lo of F(delta, omega).

    Rounding term: |F^ - F(delta, omega)| <= c s with s = 1 + u/omega, and
    c s <= c + c u/w.lo.  The computed ends are fl(a) and fl(b), within u
    of a and b (an empty computed overlap means an empty exact one, F^ =
    F = 0).  0, delta and +-1 are floats, so 0 and delta stay cuts and
    each computed piece holds one quadratic of A B, on which 0 <= A <= 1,
    |t - delta| <= omega + u and |B| <= s.  The pieces' lengths h sum to
    at most min(2, 2 omega + 2u).  Per source:
    - the ends: integrating A B from fl(a) instead of a, where |B| = |t -
      a|/omega, errs by at most u^2/(2 omega); A B at fl(a) is at most
      u/omega and is taken as 0 with weight h/6 <= (2 omega + 2u)/6: u s
      per end, the same at b;
    - the midpoints: the computed ones lie in their pieces, within u +
      eta/2 of the exact ones, where |(A B)'| <= s + 1/omega; with weights
      4h/6, 8/3 (u + eta/2) s;
    - the values: rounding 1 - |t|, t - delta, the quotient, 1 - it and
      the product leaves each within gamma_5 s + 3 eta, and the weights
      sum to at most 2: 2 gamma_5 s + 6 eta;
    - the sums: each term passes through at most seven roundings (its
      length, two sums in its piece, the product, two sums of pieces, the
      division by 6), so they add gamma_7 times sum h max|value| <= 2 ((1
      + gamma_5) s + 3 eta), and at most 2 eta where products underflow.
    In all at most 29 u s + 10 eta s up to terms of order u^2 s: below c s.
    """
    delta, omega = d.mid, w.mid
    lo = np.maximum(delta - omega, -1.0)
    hi = np.maximum(np.minimum(delta + omega, 1.0), lo)
    cut_1 = np.clip(np.minimum(delta, 0.0), lo, hi)
    cut_2 = np.clip(np.maximum(delta, 0.0), lo, hi)

    def value(t):  # A(t) B(t)
        return (1.0 - np.abs(t)) * (1.0 - np.abs(t - delta) / omega)

    v_1, v_2 = value(cut_1), value(cut_2)
    f = ((cut_1 - lo) * (4.0 * value(0.5 * (lo + cut_1)) + v_1)
         + (cut_2 - cut_1) * (v_1 + 4.0 * value(0.5 * (cut_1 + cut_2)) + v_2)
         + (hi - cut_2) * (v_2 + 4.0 * value(0.5 * (cut_2 + hi)))) / 6.0
    r = np.maximum(delta - d.lo, d.hi - delta) \
        + np.maximum(omega - w.lo, w.hi - omega)
    rho = (_ROUND + (r + _ROUND_U) / w.lo) * _RHO_UP
    disjoint = abs(d).lo >= (w + 1).hi
    return IntervalArray(
        np.where(disjoint, 0.0, np.maximum(np.nextafter(f - rho, -np.inf), 0.0)),
        np.where(disjoint, 0.0, np.nextafter(f + rho, np.inf)))


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
    on the first branch whose endpoint brackets admit it; a branch takes
    both from one evaluation of its nodes (one phase B pi x each)."""
    nodes = np.arange(k)
    x = ratio_array(nodes, k)
    value = np.empty((2, k))
    deriv = np.empty((2, k))
    free = np.ones(k, dtype=bool)
    for br in m.branches:
        sel = free & (nodes >= math.ceil(br.lo.lo * k)) & \
            (nodes <= math.floor(br.hi.hi * k))
        xs = x[sel]
        v, d = br._derivs(xs, (0, 1))
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
