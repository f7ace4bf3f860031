"""Rigorously enclosed Ulam transition matrices.

Entry (i, j) of the Ulam matrix is P_ij = m(T^-1(I_j) cap I_i) * k for the
uniform partition of [0,1] into k cells.  Rows are assembled by recursive
subdivision: a sub-piece of cell i whose image certifiably lands inside one
cell contributes its full measure; pieces straddling cell boundaries or
meeting a breakpoint enclosure are subdivided until their measure drops
below the threshold nu and are then charged to the per-entry error budget.

Linear branches with exact rational data bypass subdivision entirely: the
preimage overlaps are computed in closed form, so piecewise linear maps with
rational slopes assemble with zero error.

Markovization redistributes each row's mass deficit uniformly over its
nonzero entries so every row sums to 1 exactly in binary64; the sub-ulp
residue of the final adjustment is charged to eps rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from .intervals import Interval, from_fraction
from .maps import Branch, PiecewiseMap

__all__ = [
    "AssemblyConfig",
    "TransitionMatrix",
    "assemble_row",
    "assemble_ulam",
    "markovize",
    "nnz_bound",
    "dump_matrix",
]


_SUBDIVISION = 16  # pieces per subdivision step


@dataclass(frozen=True)
class AssemblyConfig:
    """Subdivision control: error threshold nu and depth cap."""

    nu: Optional[Fraction] = None      # None: defaults to 1e-6 / k
    max_depth: int = 30

    def __post_init__(self):
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive")

    def resolved_nu(self, k: int) -> Fraction:
        if self.nu is not None:
            return Fraction(self.nu)
        return Fraction(1, k * 10 ** 6)


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse row-stochastic matrix with a certified per-entry error bound.

    eps bounds max_ij |stored_ij - P_ij| before markovization; after
    markovization the guarantee is |Pi_ij - P_ij| <= 2*eps per entry, hence
    ||P_k - Pi||_1 < 2 * nnz_max * eps in the operator norm on row vectors.
    """

    k: int
    csr: sparse.csr_matrix
    eps: float
    nnz_max: int
    norm_kind: str = "L1"
    markovized: bool = False

    def row_sums(self) -> np.ndarray:
        """Correctly rounded row sums (fsum), the markovization guarantee."""
        out = np.empty(self.k)
        for i in range(self.k):
            out[i] = math.fsum(self.csr.data[self.csr.indptr[i]:self.csr.indptr[i + 1]])
        return out


class _RowAccumulator:
    def __init__(self, k: int):
        self.k = k
        self.vals: Dict[int, Fraction] = {}
        self.errs: Dict[int, Fraction] = {}

    def add(self, j: int, mass_times_k: Fraction):
        self.vals[j] = self.vals.get(j, Fraction(0)) + mass_times_k

    def charge(self, j: int, mass_times_k: Fraction):
        self.errs[j] = self.errs.get(j, Fraction(0)) + mass_times_k


def _interior_breakpoints(m: PiecewiseMap):
    """(exact rational, enclosure-as-fractions) interior breakpoints."""
    exact: List[Fraction] = []
    fuzzy: List[Tuple[Fraction, Fraction]] = []
    for e in m.breakpoints():
        if e.is_exact:
            exact.append(e.exact)
        else:
            fuzzy.append((Fraction(e.enc.lo), Fraction(e.enc.hi)))
    return exact, fuzzy


def _certain_branch(m: PiecewiseMap, a: Fraction, b: Fraction) -> Optional[Branch]:
    """Branch whose true domain certifiably contains [a, b], if any."""
    for br in m.branches:
        lo_in = br.lo.exact if br.lo.is_exact else Fraction(br.lo.enc.hi)
        hi_in = br.hi.exact if br.hi.is_exact else Fraction(br.hi.enc.lo)
        if lo_in <= a and b <= hi_in:
            return br
    return None


def _image_exact(br: Branch, a: Fraction, b: Fraction):
    """Exact image [u, v] of [a, b] under a monotone branch, if computable."""
    va = br.value_exact(a)
    vb = br.value_exact(b)
    if va is None or vb is None:
        return None
    return (va, vb) if va <= vb else (vb, va)


def _images_fuzzy(m: PiecewiseMap, a: Fraction, b: Fraction):
    """Per-branch image enclosures of [a, b] (not hulled across branches)."""
    af, bf = float(a), float(b)
    out = []
    for br in m.branches:
        dom = br.domain_outer()
        if dom.hi < af or dom.lo > bf:
            continue
        seg = Interval(max(dom.lo, af), min(dom.hi, bf))
        img = Interval.hull(br.value_iv(Interval(seg.lo, seg.lo)),
                            br.value_iv(Interval(seg.hi, seg.hi)))
        lo = max(img.lo, 0.0)
        hi = min(img.hi, 1.0)
        if lo <= hi:
            out.append((Fraction(lo), Fraction(hi)))
    if not out:
        out.append((Fraction(0), Fraction(1)))
    return out


def _cells_touched(u: Fraction, v: Fraction, k: int) -> Tuple[int, int]:
    """Cell index range [j_lo, j_hi] meeting (u, v) with positive measure."""
    j_lo = math.floor(u * k)
    vk = v * k
    j_hi = (vk.numerator // vk.denominator - 1) if vk.denominator == 1 else math.floor(vk)
    return max(j_lo, 0), min(j_hi, k - 1)


def _linear_assign(acc: _RowAccumulator, br: Branch, a: Fraction, b: Fraction):
    """Closed-form preimage overlap for an exact-rational linear branch."""
    k = acc.k
    c0 = br.poly[0]
    c1 = br.poly[1] if len(br.poly) > 1 else Fraction(0)
    u = c0 + c1 * a
    v = c0 + c1 * b
    if u > v:
        u, v = v, u
    j_lo, j_hi = _cells_touched(u, v, k)
    inv_slope = 1 / abs(c1)
    for j in range(j_lo, j_hi + 1):
        o_lo = max(u, Fraction(j, k))
        o_hi = min(v, Fraction(j + 1, k))
        if o_hi > o_lo:
            acc.add(j, (o_hi - o_lo) * inv_slope * k)


def assemble_row(m: PiecewiseMap, i: int, k: int,
                 cfg: AssemblyConfig) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """One row of the Ulam matrix: (entries, per-entry charged errors).

    Entries and errors are exact rationals in P units (mass times k).
    Raises if the depth cap is hit before pieces shrink below nu.
    """
    if not 0 <= i < k:
        raise ValueError("row index out of range")
    nu = cfg.resolved_nu(k)
    acc = _RowAccumulator(k)
    exact_bps, fuzzy_bps = _interior_breakpoints(m)
    stack: List[Tuple[Fraction, Fraction, int]] = [(Fraction(i, k), Fraction(i + 1, k), 0)]
    while stack:
        a, b, depth = stack.pop()
        measure = b - a
        if measure <= 0:
            continue
        # exact breakpoints strictly inside: split there at no cost
        inner_exact = [q for q in exact_bps if a < q < b]
        if inner_exact:
            pts = [a] + sorted(inner_exact) + [b]
            for p, q in zip(pts, pts[1:]):
                stack.append((p, q, depth))
            continue
        # breakpoint enclosures meeting the piece: the discontinuity path
        if any(lo <= b and a <= hi for lo, hi in fuzzy_bps):
            if measure > nu and depth < cfg.max_depth:
                _subdivide(stack, a, b, depth)
            elif measure > nu:
                raise RuntimeError(
                    f"depth cap {cfg.max_depth} hit at piece width {float(measure):.3g}"
                    " before reaching nu; nu too small for the working precision"
                )
            else:
                _charge_piece(acc, m, a, b, measure)
            continue
        br = _certain_branch(m, a, b)
        if br is None:
            # only possible inside an enclosure gap; treat as discontinuity
            if measure > nu and depth < cfg.max_depth:
                _subdivide(stack, a, b, depth)
            else:
                _charge_piece(acc, m, a, b, measure)
            continue
        if br.is_linear:
            _linear_assign(acc, br, a, b)
            continue
        img = _image_exact(br, a, b)
        if img is None:
            seg_lo = br.value_iv(from_fraction(a))
            seg_hi = br.value_iv(from_fraction(b))
            hull = Interval.hull(seg_lo, seg_hi)
            img = (Fraction(max(hull.lo, 0.0)), Fraction(min(hull.hi, 1.0)))
        u, v = max(img[0], Fraction(0)), min(img[1], Fraction(1))
        j_lo, j_hi = _cells_touched(u, v, k)
        if j_lo >= j_hi:
            acc.add(j_lo, measure * k)
        elif measure > nu and depth < cfg.max_depth:
            _subdivide(stack, a, b, depth)
        elif measure > nu:
            raise RuntimeError(
                f"depth cap {cfg.max_depth} hit at piece width {float(measure):.3g}"
                " before reaching nu; nu too small for the working precision"
            )
        else:
            for j in range(j_lo, j_hi + 1):
                acc.charge(j, measure * k)
    return acc.vals, acc.errs


def _subdivide(stack, a: Fraction, b: Fraction, depth: int):
    step = (b - a) / _SUBDIVISION
    for t in range(_SUBDIVISION):
        stack.append((a + t * step, a + (t + 1) * step, depth + 1))


def _charge_piece(acc: _RowAccumulator, m: PiecewiseMap,
                  a: Fraction, b: Fraction, measure: Fraction):
    charged = set()
    for u, v in _images_fuzzy(m, a, b):
        j_lo, j_hi = _cells_touched(u, v, acc.k)
        charged.update(range(j_lo, j_hi + 1))
    for j in charged:
        acc.charge(j, measure * acc.k)


def assemble_ulam(m: PiecewiseMap, k: int,
                  cfg: Optional[AssemblyConfig] = None) -> TransitionMatrix:
    """Assemble the raw (un-markovized) Ulam matrix for a k-cell partition."""
    cfg = cfg or AssemblyConfig()
    if k < 1:
        raise ValueError("k must be positive")
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    eps = 0.0
    nnz_max = 0
    for i in range(k):
        vals, errs = assemble_row(m, i, k, cfg)
        if not vals:
            raise ValueError(f"row {i} has no nonzero entries; map is singular there")
        cols = sorted(vals)
        for j in cols:
            x = vals[j]
            f = float(x)
            data.append(f)
            indices.append(j)
            # representation slack of the float conversion
            repr_err = abs(Fraction(f) - x)
            entry_err = errs.get(j, Fraction(0)) + repr_err
            if entry_err:
                eps = max(eps, from_fraction(entry_err).hi)
        for j, e in errs.items():
            if j not in vals:
                eps = max(eps, from_fraction(e).hi)
        touched = len(set(cols) | set(errs))
        nnz_max = max(nnz_max, touched)
        indptr.append(len(indices))
    csr = sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(k, k),
    )
    return TransitionMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz_max, norm_kind="L1")


def markovize(raw: TransitionMatrix) -> TransitionMatrix:
    """Spread each row's deficit uniformly so rows sum to 1 exactly.

    The sub-ulp residue left by the final float adjustment, and any clamping
    of entries driven below zero, are charged to eps.
    """
    csr = raw.csr.tocsr(copy=True)
    extra = 0.0
    for i in range(raw.k):
        s, e = csr.indptr[i], csr.indptr[i + 1]
        if s == e:
            raise ValueError(f"row {i} has no nonzero entries")
        row = csr.data[s:e]
        deficit = 1.0 - math.fsum(row)
        share = deficit / len(row)
        row += share
        if np.any(row < 0.0):
            clamped = -row[row < 0.0].sum()
            row[row < 0.0] = 0.0
            extra = max(extra, clamped)
        residue = 1.0 - math.fsum(row)
        jmax = int(np.argmax(row))
        row[jmax] += residue
        final = 1.0 - math.fsum(row)
        if final != 0.0:
            row[jmax] += final
        extra = max(extra, abs(residue))
        csr.data[s:e] = row
    eps = raw.eps + extra
    return replace(raw, csr=csr, eps=eps, markovized=True)


def nnz_bound(matrix: TransitionMatrix, m: PiecewiseMap) -> int:
    """Max nonzeros per row; raises RuntimeError above the sup|T'| + 4
    structural bound."""
    counts = np.diff(matrix.csr.indptr)
    observed = int(counts.max())
    cap = math.ceil(m.abs_deriv_sup().hi) + 4
    if observed > cap:
        raise RuntimeError(
            f"row sparsity {observed} exceeds structural bound {cap}; assembly bug"
        )
    return observed


def dump_matrix(matrix: TransitionMatrix, path: str) -> None:
    """Text dump: header 'k eps nnz_max [norm_kind]', one line per nonzero."""
    import os

    coo = matrix.csr.tocoo()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        if matrix.norm_kind == "L1":
            fh.write(f"{matrix.k} {matrix.eps!r} {matrix.nnz_max}\n")
        else:
            fh.write(f"{matrix.k} {matrix.eps!r} {matrix.nnz_max} {matrix.norm_kind}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{int(i)} {int(j)} {float(v)!r} {float(matrix.eps)!r}\n")
