"""Rigorously enclosed Ulam transition matrices.

Entry (i, j) of the Ulam matrix is P_ij = m(T^-1(I_j) cap I_i) * k for the
uniform partition of [0,1] into k cells.  Rows are assembled from branch
preimages: each branch meeting cell i gives a piece whose ends are cell
edges or the branch's endpoint brackets, the preimages of the levels j/k
inside the piece's image cut it into segments that each map into a single
cell, and a segment's length is enclosed from the brackets of its two ends.
An entry stores the midpoint of that enclosure and charges its half-width
to the per-entry error budget.

Exact linear branches with rational data have exact preimages, so
piecewise linear maps with rational slopes assemble with zero error.

Markovization redistributes each row's mass deficit uniformly over its
nonzero entries so every row sums to 1 exactly in binary64; the sub-ulp
residue of the final adjustment is charged to eps rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse

from .intervals import from_fraction
from .maps import Branch, Endpoint, PiecewiseMap, level_crossing

__all__ = [
    "TransitionMatrix",
    "assemble_row",
    "assemble_ulam",
    "markovize",
    "nnz_bound",
    "dump_matrix",
]


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
        return _row_fsums(self.csr.data, self.csr.indptr)


_FSUM_ROWS = 1024  # rows whose entries become Python floats at a time


def _row_fsums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """math.fsum of every CSR row: each sum correctly rounded.  The rows go
    to Python floats in chunks, so no list of the whole matrix raises the
    process's peak memory."""
    k = len(indptr) - 1
    out = np.empty(k)
    for first in range(0, k, _FSUM_ROWS):
        ends = indptr[first:first + _FSUM_ROWS + 1].tolist()
        base = ends[0]
        vals = data[base:ends[-1]].tolist()
        out[first:first + len(ends) - 1] = [
            math.fsum(vals[s - base:e - base]) for s, e in zip(ends, ends[1:])]
    return out


def _value_bracket(br: Branch, x: Fraction) -> Tuple[Fraction, Fraction]:
    v = br.value_exact(x)
    if v is not None:
        return v, v
    enc = br.value_iv(from_fraction(x))
    return Fraction(enc.lo), Fraction(enc.hi)


def _piece_end(e: Endpoint, c_lo: Fraction, c_hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Bracket of the endpoint clamped to the cell [c_lo, c_hi]."""
    return max(c_lo, min(c_hi, e.lo)), max(c_lo, min(c_hi, e.hi))


def assemble_row(m: PiecewiseMap, i: int,
                 k: int) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """One row of the Ulam matrix: (entries, per-entry charged errors).

    Entries and errors are exact rationals in P units (mass times k); an
    entry with no error key is exact.
    """
    if not 0 <= i < k:
        raise ValueError("row index out of range")
    c_lo, c_hi = Fraction(i, k), Fraction(i + 1, k)
    vals: Dict[int, Fraction] = {}
    errs: Dict[int, Fraction] = {}
    for br in m.branches:
        # brackets of the piece ends, the branch ends clamped to the cell
        left = _piece_end(br.lo, c_lo, c_hi)
        if left[0] == c_hi:
            break  # branches are ordered along [0, 1]
        right = _piece_end(br.hi, c_lo, c_hi)
        if right[1] == c_lo:
            continue
        a, b = left[0], right[1]
        (u_lo, u_hi), (v_lo, v_hi) = _value_bracket(br, a), _value_bracket(br, b)
        increasing = br.increasing
        # levels j/k strictly inside the image enclosure cut the piece
        j_first = math.floor(min(u_lo, v_lo) * k)
        j_last = max(math.ceil(max(u_hi, v_hi) * k) - 1, j_first)
        levels = range(j_first + 1, j_last + 1)
        cuts = [left]
        for j in (levels if increasing else reversed(levels)):
            x_lo, x_hi = level_crossing(br, Fraction(j, k), a, b)
            # the bracket lies in [a, b]; clamp it to the true piece
            cuts.append((min(x_lo, right[0]), max(x_hi, left[1])))
        cuts.append(right)
        j, step = (j_first, 1) if increasing else (j_last, -1)
        for p, q in zip(cuts, cuts[1:]):
            len_lo, len_hi = q[0] - p[1], q[1] - p[0]
            if not 0 <= j < k:
                # a segment mapping outside [0, 1]: empty for a map of [0, 1]
                # into itself, which it certifiably is not if the segment
                # has positive length
                if len_lo > 0:
                    raise ValueError(f"the map leaves [0, 1] on cell {i}")
            elif len_lo == len_hi:  # both ends exact
                if len_hi > 0:
                    vals[j] = vals.get(j, 0) + len_hi * k
            elif len_hi > 0:
                len_lo = max(len_lo, Fraction(0))
                vals[j] = vals.get(j, 0) + (len_lo + len_hi) / 2 * k
                errs[j] = errs.get(j, 0) + (len_hi - len_lo) / 2 * k
            j += step
    return vals, errs


def assemble_ulam(m: PiecewiseMap, k: int) -> TransitionMatrix:
    """Assemble the raw (un-markovized) Ulam matrix for a k-cell partition."""
    if k < 1:
        raise ValueError("k must be positive")
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    eps = Fraction(0)  # rounded up once at the end: rounding is monotone
    nnz_max = 0
    for i in range(k):
        vals, errs = assemble_row(m, i, k)
        if not vals:
            raise ValueError(f"row {i} has no nonzero entries; map is singular there")
        cols = sorted(vals)
        for j in cols:
            x = vals[j]
            f = float(x)
            data.append(f)
            indices.append(j)
            # representation slack of the float conversion
            eps = max(eps, errs.get(j, 0) + abs(Fraction(f) - x))
        nnz_max = max(nnz_max, len(cols))
        indptr.append(len(indices))
    csr = sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(k, k),
    )
    return TransitionMatrix(k=k, csr=csr, eps=from_fraction(eps).hi,
                            nnz_max=nnz_max, norm_kind="L1")


def markovize(raw: TransitionMatrix) -> TransitionMatrix:
    """Spread each row's deficit uniformly so rows sum to 1 exactly.

    The sub-ulp residue left by the final float adjustment, and any clamping
    of entries driven below zero, are charged to eps.  Every step runs on
    all rows at once; row sums are fsum per row, and the residue goes to
    the first largest entry of each row.
    """
    csr = raw.csr.tocsr(copy=True)
    indptr, data = csr.indptr, csr.data
    counts = np.diff(indptr)
    if (counts == 0).any():
        raise ValueError(f"row {np.argmax(counts == 0)} has no nonzero entries")
    data += np.repeat((1.0 - _row_fsums(data, indptr)) / counts, counts)
    clamped = 0.0
    negative = np.flatnonzero(data < 0.0)
    if len(negative):
        rows = np.searchsorted(indptr, negative, side="right") - 1
        clamped = float(np.bincount(rows, weights=-data[negative]).max())
        data[negative] = 0.0
    residue = 1.0 - _row_fsums(data, indptr)
    row_max = np.repeat(np.maximum.reduceat(data, indptr[:-1]), counts)
    at_max = np.flatnonzero(data == row_max)
    rows = np.searchsorted(indptr, at_max, side="right") - 1
    jmax = at_max[np.r_[True, rows[1:] != rows[:-1]]]  # first per row
    data[jmax] += residue
    data[jmax] += 1.0 - _row_fsums(data, indptr)
    extra = max(clamped, float(np.abs(residue).max()))
    return replace(raw, csr=csr, eps=raw.eps + extra, markovized=True)


def nnz_bound(matrix: TransitionMatrix, m: PiecewiseMap) -> int:
    """Max nonzeros per row; raises RuntimeError above the sup|T'| + 4
    structural bound."""
    counts = np.diff(matrix.csr.indptr)
    observed = int(counts.max())
    cap = math.ceil(m.abs_deriv_sup.hi) + 4
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
