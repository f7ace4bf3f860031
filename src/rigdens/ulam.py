"""Rigorously enclosed Ulam transition matrices.

Entry (i, j) of the Ulam matrix is P_ij = m(T^-1(I_j) cap I_i) * k for the
uniform partition of [0,1] into k cells.  ``assemble_ulam`` builds the whole
matrix in one pass per branch: the brackets of every level preimage
T_b^-1(j/k) inside the branch's image (``maps.level_crossing``, one array
call) merge with the cell edges i/k inside its domain, each gap between
consecutive points is one segment with its (i, j), and the segment lengths
accumulate into CSR with one sort and one reduction.

- Rational linear branches with exact ends stay exact: every point is an
  integer over one common denominator (int64 when k times it fits a
  double, Python ints otherwise), each entry is rounded to float once, and
  eps is the exact maximum rounding, rounded up once.  Piecewise linear
  maps with rational slopes therefore assemble with zero charged error.
- Other branches give float brackets a few ulps wide.  A bracket that
  straddles a cell edge is placed by the branch value at the edge (exact
  where it is rational); where that cannot decide it, it is clamped into
  both cells and charged in each.  An entry stores the midpoint of its
  outward-rounded length enclosure times k and charges the distance to
  the enclosure's ends.

``assemble_row`` is the scalar reference the tests compare the whole-matrix
assembly against, one row at a time in exact rationals from the same
preimage brackets; the pipeline does not call it.

Markovization redistributes each row's mass deficit uniformly over its
nonzero entries so every row sums to 1 exactly in binary64; the sub-ulp
residue of the final adjustment is charged to eps rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, Dict, List, Tuple

import numpy as np

from ._csr import CSR
from .intervals import (Interval, IntervalArray, _gamma, _two_prod, _two_sum,
                        exact_int_dtype, from_fraction, iv, ratio_array)
from .maps import Branch, Endpoint, PiecewiseMap, level_crossing, value_bracket
from .polys import poly_is_linear

__all__ = [
    "TransitionMatrix",
    "assemble_row",
    "assemble_ulam",
    "markovize",
    "dump_matrix",
]


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse row-stochastic matrix with a certified per-entry error bound.

    csr holds it as a plain CSR record (rigdens._csr), which the sweep
    multiplies with scipy's compiled sparse kernels.

    eps bounds max_ij |stored_ij - P_ij| before markovization; after
    markovization the guarantee is |Pi_ij - P_ij| <= 2*eps per entry, hence
    ||P_k - Pi||_1 <= step_error = 2 * nnz_max * eps on row vectors: the
    sweep's per-step inflation and the defect of the L1 matrix term
    (rigdens.certify tabulates the terms).
    """

    k: int
    csr: CSR
    eps: float
    nnz_max: int
    norm_kind: ClassVar[str] = "L1"  # the sweep's norm, fixed by the type

    @property
    def step_error(self) -> float:
        """||P - Pi|| in the active norm, rounded up."""
        return (iv(2) * iv(self.nnz_max) * iv(self.eps)).hi

    def row_sums(self) -> np.ndarray:
        """Correctly rounded row sums (fsum), the markovization guarantee."""
        return _row_fsums(self.csr.data, self.csr.indptr)


_FSUM_ROWS = 1 << 16  # rows summed at a time, so temporaries stay small


def _row_fsums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """math.fsum of every CSR row: each sum correctly rounded.

    A chunk of rows is summed column by column, as if padded with zeros to
    its longest row, by one error-free TwoSum cascade (VecSum of Ogita,
    Rump & Oishi, Accurate sum and dot product, SIAM J. Sci. Comput. 2005):
    the float sum s and the errors e_i of the m additions of a row of m
    entries have its exact sum S = s + sum e_i.  The float sum r of the e_i
    misses sum e_i by at most gamma_(m-1) sum |e_i|, and the float sum mag
    of the |e_i| has sum |e_i| <= (1 + gamma_(m-1)) mag, so the miss is at
    most gamma_(m-1) (1 + gamma_(m-1)) mag <= gamma_(2m) mag, rounded up b
    (additions are exact below the normal range).  TwoSum gives c + d =
    s + r, so S - c = d + (sum e_i - r) lies in [d - b, d + b].  c is the
    nearest float to S, the one fsum returns, where that range lies
    strictly inside (-g_lo/2, g_hi/2), g_lo and g_hi the gaps from c to its
    neighbours (halved exactly, or to 0 below 2^-1073, which only tightens
    the test); rounding is monotone, so d + b and b - d rounded still
    decide it.  Rows the test cannot decide (a tie, heavy cancellation, a
    zero sum whose sign fsum sets, or a non-finite value) take math.fsum."""
    k = len(indptr) - 1
    out = np.zeros(k)
    if not len(data):
        return out
    for first in range(0, k, _FSUM_ROWS):
        starts = indptr[first:first + _FSUM_ROWS + 1]
        counts, last = np.diff(starts), np.maximum(starts[1:] - 1, 0)
        starts = starts[:-1]
        m = int(counts.max())
        with np.errstate(invalid="ignore", over="ignore"):
            s = r = mag = np.zeros(len(counts))
            for j in range(m):
                s, e = _two_sum(s, np.where(
                    counts > j, data[np.minimum(starts + j, last)], 0.0))
                r, mag = r + e, mag + np.abs(e)
            b = np.nextafter(mag * _gamma(2 * m, 2.0 ** -53).hi, np.inf)
            c, d = _two_sum(s, r)
            ok = ((d + b < (np.nextafter(c, np.inf) - c) / 2)
                  & (b - d < (c - np.nextafter(c, -np.inf)) / 2)
                  & (c != 0) & (np.abs(c) < np.finfo(np.float64).max))
        out[first:first + len(counts)] = c
        for i in np.flatnonzero(~ok) + first:
            out[i] = math.fsum(data[indptr[i]:indptr[i + 1]].tolist())
    return out


def _piece_end(e: Endpoint, c_lo: Fraction, c_hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Bracket of the endpoint clamped to the cell [c_lo, c_hi]."""
    return max(c_lo, min(c_hi, e.lo)), max(c_lo, min(c_hi, e.hi))


def assemble_row(m: PiecewiseMap, i: int,
                 k: int) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """One row of the Ulam matrix: (entries, per-entry charged errors).

    Entries and errors are exact rationals in P units (mass times k); an
    entry with no error key is exact.  This is the scalar reference the
    whole-matrix ``assemble_ulam`` is tested against; the pipeline does
    not call it.
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
        (u_lo, u_hi), (v_lo, v_hi) = (value_bracket(br, Endpoint.from_rational(x))
                                      for x in (a, b))
        increasing = br.increasing
        # levels j/k strictly inside the image enclosure cut the piece
        j_first = math.floor(min(u_lo, v_lo) * k)
        j_last = max(math.ceil(max(u_hi, v_hi) * k) - 1, j_first)
        levels = range(j_first + 1, j_last + 1)
        cuts = [left]
        for j in (levels if increasing else reversed(levels)):
            # one level at a time: the rational bracket of its preimage
            lo, hi, scale = level_crossing(br, np.array([j]), k, a, b)
            x_lo, x_hi = (Fraction(e.tolist()[0]) / scale for e in (lo, hi))
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


# ---------------------------------------------------------------------------
# whole-matrix assembly
# ---------------------------------------------------------------------------


def _is_exact_linear(br: Branch) -> bool:
    return (br.is_polynomial and poly_is_linear(br.poly)
            and br.lo.is_exact and br.hi.is_exact)


def _image_levels(br: Branch, k: int, a: Endpoint, c: Endpoint):
    """(levels, base, step) for the branch over [a, c]: the levels j whose
    j/k lies strictly inside the enclosure of the image, ascending; the
    level cell of the image just right of a; and +-1, the change of that
    label at each crossing along the domain."""
    (u_lo, u_hi), (v_lo, v_hi) = value_bracket(br, a), value_bracket(br, c)
    bottom, top = (u_lo, v_hi) if br.increasing else (v_lo, u_hi)
    first, last = math.floor(bottom * k) + 1, math.ceil(top * k) - 1
    levels = np.arange(first, last + 1, dtype=np.int64)
    return (levels, first - 1, 1) if br.increasing else (levels, last, -1)


def _exact_segments(branches: List[Branch], k: int):
    """(cells, labels, lengths, den) of rational linear branches with
    exact ends.  Every point (branch end, cell edge, level preimage) is an
    integer over one common denominator den, so a branch's segments are
    the gaps of one sort, each in the cell of its left end; lengths are
    exact integers over den, in the format of ``exact_int_dtype``."""
    found = []
    for br in branches:
        levels, base, step = _image_levels(br, k, br.lo, br.hi)
        xs, _, scale = level_crossing(br, levels, k, br.lo.exact, br.hi.exact)
        found.append((br, xs, scale, base, step))
    den = math.lcm(k, *(f[2] for f in found))
    dtype = exact_int_dtype(k * den)
    cells, labels, lengths = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
        [np.zeros(0, dtype)]
    for br, xs, scale, base, step in found:
        lo, hi = br.lo.exact, br.hi.exact
        ends = np.array([lo.numerator * (den // lo.denominator),
                         hi.numerator * (den // hi.denominator)], dtype=dtype)
        edges = np.arange(math.floor(lo * k) + 1,
                          math.ceil(hi * k)).astype(dtype) * (den // k)
        pts = np.concatenate([ends[:1], edges, xs.astype(dtype) * (den // scale),
                              ends[1:]])
        crossing = np.zeros(len(pts), np.int64)
        crossing[1 + len(edges):-1] = 1
        order = np.argsort(pts, kind="stable")
        pts, crossing = pts[order], crossing[order]
        gap = pts[1:] - pts[:-1]
        keep = np.flatnonzero(gap > 0)
        cells.append(((pts[:-1][keep] * k) // den).astype(np.int64))
        labels.append(base + step * np.cumsum(crossing)[:-1][keep])
        lengths.append(gap[keep])
    return (np.concatenate(cells), np.concatenate(labels),
            np.concatenate(lengths), den)


def _float_segments(br: Branch, k: int):
    """(cells, labels, length enclosures) of one branch from float brackets.

    Each cell the branch meets holds its piece: the branch ends clamped to
    the cell, and between them the level preimages placed in that cell.  A
    preimage bracket that straddles a cell edge is placed by the branch
    value at the edge (exact where rational); where that cannot decide
    it, the bracket is clamped into both cells and charged in each."""
    increasing = br.increasing
    a, c = br.lo.lo, br.hi.hi
    levels, base, step = _image_levels(br, k, *map(Endpoint.from_rational, (a, c)))
    lo, hi, scale = level_crossing(br, levels, k, a, c)
    if scale != 1:  # exact roots of a linear branch with bracketed ends
        lo, hi = ratio_array(lo, scale).lo, ratio_array(hi, scale).hi
    y = ratio_array(levels, k)
    if not increasing:  # domain order
        levels, lo, hi, y = levels[::-1], lo[::-1], hi[::-1], y[::-1]
    # the roots ascend along the domain, so each bracket end may take its
    # neighbour's where that is tighter
    lo = np.maximum.accumulate(lo)
    hi = np.minimum.accumulate(hi[::-1])[::-1]
    i0, i1 = math.floor(a * k), math.ceil(c * k) - 1
    edges = ratio_array(np.arange(i0, i1 + 2), k)  # edges[i - i0] holds i/k

    def cell_of(x):
        # x >= i/k iff x >= the upper end of i/k's smallest enclosure
        return np.clip(np.searchsorted(edges.hi, x, side="right") - 1 + i0, i0, i1)

    first, last = cell_of(lo), cell_of(hi)
    one = np.flatnonzero(last == first + 1)  # brackets holding one edge
    if one.size:
        edge = last[one]
        t = br.value_iv(edges[edge - i0])
        under, over = t.hi < y.lo[one], t.lo > y.hi[one]
        right, left = (under, over) if increasing else (over, under)
        first[one[right]] = edge[right]
        last[one[left]] = edge[left] - 1
        for n in one[~(right | left)].tolist():
            v = br.value_exact(Fraction(int(last[n]), k))
            if v is None:
                continue  # undecided: the bracket stays in both cells
            level = Fraction(int(levels[n]), k)
            if v == level:  # the preimage is the edge: in neither cell
                first[n], last[n] = last[n], first[n]
            elif (v < level) == increasing:
                first[n] = last[n]
            else:
                last[n] = first[n]
    first = np.maximum.accumulate(first)
    last = np.minimum.accumulate(last[::-1])[::-1]

    # the points of every cell: the clamped branch ends and the placed
    # preimages, in domain order
    cells = np.arange(i0, i1 + 1)
    e_lo, e_hi = edges[:-1], edges[1:]

    def clamp(p: Interval):
        return (np.maximum(e_lo.lo, np.minimum(e_hi.lo, p.lo)),
                np.maximum(e_lo.hi, np.minimum(e_hi.hi, p.hi)))

    left_lo, left_hi = clamp(br.lo.enc)
    right_lo, right_hi = clamp(br.hi.enc)
    n = len(lo)
    counts = np.maximum(last - first + 1, 0)
    r = np.repeat(np.arange(n), counts)  # a preimage once per cell it is in
    pc = first[r] + np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
    ci = pc - i0
    cell = np.concatenate([cells, pc, cells])
    rank = np.concatenate([np.full(len(cells), -1), r, np.full(len(cells), n)])
    p_lo = np.concatenate([left_lo, np.maximum(left_lo[ci], np.minimum(right_lo[ci], lo[r])),
                           right_lo])
    p_hi = np.concatenate([left_hi, np.maximum(left_hi[ci], np.minimum(right_hi[ci], hi[r])),
                           right_hi])
    before = np.searchsorted(last, cells, side="left")  # crossings left of the cell
    label = np.concatenate([base + step * before, base + step * (r + 1),
                            np.zeros(len(cells), np.int64)])
    order = np.lexsort((rank, cell))
    starts = rank[order[:-1]] < n  # every point but a cell's right end
    p, q = order[:-1][starts], order[1:][starts]
    length = IntervalArray(p_lo[q], p_hi[q]) - IntervalArray(p_lo[p], p_hi[p])
    return cell[p], label[p], length.lo, length.hi


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start of each run of equal keys in a sorted array."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][:len(keys)])


def _entry_sums(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(keys, IntervalArray): outward-rounded sum of the enclosures of each
    key, from one sort; an entry holds a few terms, so the sums add the
    m-th terms of all entries at once."""
    order = np.argsort(keys, kind="stable")
    keys, lo, hi = keys[order], lo[order], hi[order]
    first = _group_starts(keys)
    size = np.diff(np.r_[first, len(keys)])
    s_lo, s_hi = lo[first], hi[first]
    for m in range(1, int(size.max(initial=1))):
        has = np.flatnonzero(size > m)
        add = IntervalArray(s_lo[has], s_hi[has]) + \
            IntervalArray(lo[first[has] + m], hi[first[has] + m])
        s_lo[has], s_hi[has] = add.lo, add.hi
    return keys[first], IntervalArray(s_lo, s_hi)


def _stored_midpoints(enc: IntervalArray):
    """(mid, err): the midpoints to store for the enclosures, and an upper
    bound on the largest distance from one to its enclosure's ends; the
    distances are interval differences, so their rounding is charged."""
    mid = enc.mid
    off = enc - mid
    return mid, float(np.max(np.maximum(-off.lo, off.hi), initial=0.0))


def _rounding_excess(num: np.ndarray, den: int, val: np.ndarray) -> Fraction:
    """Exact max over entries of |val - num / den|, where val holds the
    correctly rounded quotients."""
    if not len(num):
        return Fraction(0)
    if num.dtype == object:
        return max(abs(Fraction(v) - Fraction(n, den))
                   for n, v in zip(num.tolist(), val.tolist()))
    # num and den are exact doubles, so the residual num - val * den of a
    # correctly rounded quotient is itself a double: TwoProd gives val * den
    # as p + e exactly and num - p is exact (Sterbenz)
    p, e = _two_prod(val, np.float64(den))
    resid = np.abs((num.astype(np.float64) - p) - e)
    return Fraction(float(resid.max())) / den


def assemble_ulam(m: PiecewiseMap, k: int) -> TransitionMatrix:
    """Assemble the raw (un-markovized) Ulam matrix for a k-cell partition.

    One pass per branch: its level preimages (``level_crossing``) merged
    with the cell edges give segments, each inside one cell and mapping
    into one level cell.  Rational linear branches with exact ends give
    exact integer lengths over a common denominator; each entry is their
    exact sum rounded once, charged its exact rounding.  Other branches
    give float length enclosures; an entry stores the midpoint of their
    outward-rounded sum times k and charges the distance to its ends.
    """
    if k < 1:
        raise ValueError("k must be positive")
    exact = [br for br in m.branches if _is_exact_linear(br)]
    e_cells, e_labels, e_len, den = _exact_segments(exact, k)
    parts = [_float_segments(br, k) for br in m.branches if not _is_exact_linear(br)]
    f_cells, f_labels, f_lo, f_hi = (np.concatenate(v) for v in zip(
        (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0)),
        *parts))
    # a segment mapping outside [0, 1] is empty for a map of [0, 1] into
    # itself, which the map certifiably is not if the segment has
    # positive length
    e_in = (e_labels >= 0) & (e_labels < k)
    f_in = (f_labels >= 0) & (f_labels < k)
    leaving = np.concatenate([e_cells[~e_in], f_cells[~f_in & (f_lo > 0)]])
    f_in &= f_hi > 0
    e_keys, e_len = e_cells[e_in] * k + e_labels[e_in], e_len[e_in]
    f_keys = f_cells[f_in] * k + f_labels[f_in]
    f_lo, f_hi = np.maximum(f_lo[f_in], 0.0), f_hi[f_in]

    order = np.argsort(e_keys, kind="stable")
    e_keys, e_len = e_keys[order], e_len[order]
    first = _group_starts(e_keys)
    if len(first):
        e_keys, e_len = e_keys[first], np.add.reduceat(e_len, first)
    f_keys, f_sum = _entry_sums(f_keys, f_lo, f_hi)
    # an entry with float terms takes its exact terms as one enclosure,
    # added after the float terms; f_keys is sorted and unique
    if len(e_keys) and len(f_keys):
        at = np.minimum(np.searchsorted(f_keys, e_keys), len(f_keys) - 1)
        mixed = f_keys[at] == e_keys
        at = at[mixed]
        q = np.asarray(e_len[mixed] / den, dtype=np.float64)
        add = f_sum[at] + IntervalArray(np.nextafter(q, -np.inf),
                                        np.nextafter(q, np.inf))
        f_sum.lo[at], f_sum.hi[at] = add.lo, add.hi
        e_keys, e_len = e_keys[~mixed], e_len[~mixed]
    f_val, f_err = _stored_midpoints(f_sum * k)
    e_num = e_len * k
    e_val = np.asarray(e_num / den, dtype=np.float64)
    eps = max(from_fraction(_rounding_excess(e_num, den, e_val)).hi, f_err)

    keys = np.concatenate([e_keys, f_keys])
    order = np.argsort(keys, kind="stable")
    keys, data = keys[order], np.concatenate([e_val, f_val])[order]
    counts = np.bincount(keys // k, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if leaving.size and (not empty.size or leaving.min() <= empty[0]):
        raise ValueError(f"the map leaves [0, 1] on cell {leaving.min()}")
    if empty.size:
        raise ValueError(f"row {empty[0]} has no nonzero entries; map is singular there")
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    csr = CSR(data, (keys % k).astype(np.int64), indptr, (k, k))
    return TransitionMatrix(k=k, csr=csr, eps=eps, nnz_max=int(counts.max()))


def markovize(raw: TransitionMatrix) -> TransitionMatrix:
    """Spread each row's deficit uniformly so rows sum to 1 exactly.

    The sub-ulp residue left by the final float adjustment, and any clamping
    of entries driven below zero, are charged to eps.  Every step runs on
    all rows at once; row sums are fsum per row, and the residue goes to
    the first largest entry of each row.
    """
    indptr, data = raw.csr.indptr, raw.csr.data.copy()
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
    return replace(raw, csr=replace(raw.csr, data=data), eps=raw.eps + extra)


def dump_matrix(matrix: TransitionMatrix, path: str) -> None:
    """Text dump: header 'k eps nnz_max [norm_kind]', one line per nonzero."""
    import os

    csr = matrix.csr
    rows = np.repeat(np.arange(matrix.k), np.diff(csr.indptr))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        if matrix.norm_kind == "L1":
            fh.write(f"{matrix.k} {matrix.eps!r} {matrix.nnz_max}\n")
        else:
            fh.write(f"{matrix.k} {matrix.eps!r} {matrix.nnz_max} {matrix.norm_kind}\n")
        for i, j, v in zip(rows, csr.indices, csr.data):
            fh.write(f"{int(i)} {int(j)} {float(v)!r} {float(matrix.eps)!r}\n")
