"""Contraction certificate and a-posteriori fixed-vector enclosure.

Both jobs concern a row-stochastic matrix Pi acting on row vectors
v -> v Pi, in the active norm ||.|| (L1, or sup at density scale).

Both proofs read Pi through one model (_Model): the float error of a
product with Pi and the growth of that error are bounded by R, a bound on
||Pi|| on all vectors (the largest row sum in L1, the largest column sum
in the sup norm), and one scale s (1 in L1, the partition size k in the
sup norm) is the anchor scale, the mass of the fixed vector and the bound
on ||w||_1 / ||w|| for every w.

Contraction.  The zero-sum anchors s (e_0 - e_j) are iterated under the
row action and their norms watched: every zero-sum vector is a
combination of anchors with coefficients of total size at most its norm
(for the 1-norm, p - q = sum_j (q_j - p_j)(e_0 - e_j)), so the largest
anchor norm after t steps bounds C_t = ||Pi^t|_V||, at density scale in
the sup norm.  Norms are upward-rounded and every float product is
covered by an explicit drift ledger.  The sweep certifies N_eps, the
first t with C_t <= 1/2 for the computed matrix, and N, which also
charges t times the per-step "inflation" ||P - Pi|| (the matrix's
step_error) that bounds the distance to the exact discretized operator.
It steps only as far as N needs: each block of anchors stops at the first
step where its own bound (its own maxima, drift and inflation) passes N's
test, and the blocks that stopped before the largest such step are
stepped again to their first pass from it on, until all stop at one
step.  Block bounds never exceed the global ones, so N is at least every
block's stop; where the global test fails up to that step, the search
resumes after it.

Fixed vector.  v is iterated in float (v <- fl(v Pi), O(nnz) per step)
until the one-step change reaches rounding level, and the exact residual
r = v Pi - v is then enclosed by a gamma-ledger over the column counts
of Pi.  Let f be the fixed vector of Pi with mass s (sum f = s).  The
stored rows sum to 1 only to within an ulp, so f is taken as any such
vector with f Pi - f = c e_j for one j and some c: the exact fixed vector
when the rows sum to exactly 1, otherwise k - 1 of the k fixed-point
equations hold exactly.  With v' = v s / sum(v) and w = v' - f
(zero-sum), telescoping gives w = w Pi^n - sum_{i<n} (w Pi - w) Pi^i,
where w Pi - w = (r' - (sum r') e_j) + c' e_j, r' = r s / sum(v), and
c' = sum_i w_i d_i for the row-sum defects d_i with |d_i| <= delta
(likewise sum r = sum_i v_i d_i, at most delta ||v||_1).  Hence, with
C_0 = 1 and n = N_eps,

    ||v - f|| <= s/|sum v| (||r|| + |sum r|) sum_{i<n} C_i
                 / (1 - C_n - delta s sum_{i<n} R^i)
                 + |sum v - s| ||v|| / |sum v|,

where C_i <= R^i as well, which caps the leading C_i near 1 in L1.  That
amount, the radius of the returned enclosure, is what the certificate
charges as its numeric error; power steps continue until it is at most
eps_num.  In L1 mode the matrix is first checked to be entrywise
nonnegative with correctly rounded row sums equal to 1, which gives
delta <= 2^-52 and R <= 1 + delta.

The anchors are stepped in blocks of columns (about 2^20 doubles each, and
at least as many blocks as threads) spread over a thread pool with one
thread per CPU this process may use; scipy's sparse product and numpy's
reductions release the GIL.  Each anchor column sees the same arithmetic
in the same order whatever the block width or thread count, so every
result is independent of both.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import sparse

from .intervals import Interval, _up, iv
from .ulam import TransitionMatrix

__all__ = [
    "ContractionCertificate",
    "EnclosedDensity",
    "NotContractingError",
    "contraction_sweep",
]

_U = 2.0 ** -53  # unit roundoff of binary64
_ETA = 2.0 ** -1074  # smallest subnormal: bounds the underflow of a product
_BLOCK_ENTRIES = 1 << 20  # doubles per anchor block (8 MiB)
_MIN_BLOCK_COLUMNS = 16  # keeps large k off one sparse mat-vec per anchor
_J_MAX = 200  # most anchor steps, and most power steps

_log = logging.getLogger(__name__)


class NotContractingError(RuntimeError):
    """Raised when no contraction is observed within the step budget, or
    the fixed-vector enclosure stays wider than eps_num."""


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction data for the zero-average subspace V.

    per_step_bounds[t-1] is a rigorous upper bound on ||Pi^t|_V|| in the
    active norm, float ledger included.  n_eps is the first t with bound
    <= 1/2; n_true additionally charges the per-step inflation that bounds
    the distance to the exact discretized operator.
    """

    n_eps: int
    n_true: int
    per_step_bounds: List[float]
    inflation_per_step: float
    norm_kind: str


@dataclass(frozen=True)
class EnclosedDensity:
    """Fixed-vector enclosure: the fixed vector of the swept matrix lies
    within radius of values in the active norm (module docstring); l is
    the number of power steps v -> v Pi computed."""

    values: np.ndarray
    radius: float
    l: int
    norm_kind: str


def _sum_up(s, n: int):
    """Upper bound of a float sum s of n nonnegative terms, elementwise."""
    return np.nextafter(s * (1.0 + 1.02 * n * _U), math.inf)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_columns(k: int) -> int:
    """Anchors per block: about _BLOCK_ENTRIES doubles of k rows,
    and narrow enough that every usable CPU gets a block."""
    per_cpu = -(-(k - 1) // _usable_cpus())
    return min(k - 1, max(_MIN_BLOCK_COLUMNS, min(_BLOCK_ENTRIES // k, per_cpu)))


@dataclass(frozen=True)
class _Model:
    """The swept matrix Pi as both proofs read it, built once by _model.

    scale is s, op_norm R and row_defect delta of the module docstring;
    inflation is ||P - Pi||.  One product of a float vector v with Pi
    obeys ||fl(vPi) - vPi|| <= gamma_C R ||v|| in either norm (C the
    largest column count), and accumulated error rides through Pi, which
    expands the norm by at most R.  The drift is that cumulative float
    error of the anchors, and a step's bound is its largest anchor norm
    plus twice the drift, rounded up.
    """

    norm_kind: str
    at: sparse.csr_matrix  # Pi transposed: its rows are the columns of Pi
    at_abs: sparse.csr_matrix
    col_counts: np.ndarray  # nonzeros per column of Pi
    col_count: float  # their maximum
    scale: float
    op_norm: float  # R
    row_defect: float  # delta
    inflation: float

    def col_norms(self, v: np.ndarray) -> np.ndarray:
        """Upper bounds of the norms of the columns of a dense block."""
        if self.norm_kind == "Linf":
            # max |v| without a block-sized temporary
            return np.maximum(v.max(axis=0), -v.min(axis=0))
        if v.shape[1] == 1:
            # numpy sums one contiguous column pairwise; a running sum adds it
            # in row order, as every column of a wider block is added
            return _sum_up(np.cumsum(np.abs(v[:, 0]))[-1:], v.shape[0])
        return _sum_up(np.abs(v).sum(axis=0), v.shape[0])

    def next_drift(self, drift: float, prev_norm: float) -> float:
        """Drift after one more product of anchors of norm prev_norm."""
        gamma = 1.01 * self.col_count * _U
        return drift * self.op_norm + gamma * self.op_norm * (prev_norm + drift)

    def bounds(self, norm_max: Sequence[float]) -> List[float]:
        out = []
        drift, prev = 0.0, self.scale  # full-anchor norm before step 1
        for m in norm_max:
            drift = self.next_drift(drift, prev)
            out.append(_up(m + 2.0 * drift))
            prev = m
        return out

    def passes_n_true(self, bound: float, t: int) -> bool:
        """N's test at step t: bound plus t inflations at most 1/2."""
        return (iv(bound) + iv(t) * iv(self.inflation)).hi <= 0.5

    def radius(self, v: np.ndarray, p: np.ndarray, c: Sequence[float]) -> float:
        """The certified ||v - f|| of the module docstring from one float
        product p = fl(v Pi) and c = (C_1, ..., C_n); inf where the bound's
        denominator is not positive."""
        k = len(v)
        r = p - v
        # fl(v Pi)_j errs by at most gamma_j (|v| |Pi|)_j plus the underflow
        # of its products; the subtraction adds at most 2u |r_j|.  The
        # ledger is evaluated in float and moved up by its own rounding.
        gamma = 1.01 * self.col_counts * _U
        a = self.at_abs @ np.abs(v)
        ledger = (gamma * (1.0 + 2.0 * gamma) * a + 2.0 * _U * np.abs(r)
                  + 4.0 * self.col_counts * _ETA) * (1.0 + 8.0 * _U)
        mag = np.abs(r) + ledger
        v_1 = _sum_up(np.abs(v).sum(), k)
        if self.norm_kind == "L1":
            r_norm, v_norm = _sum_up(mag.sum(), k + 1), v_1
        else:
            r_norm = _up(float(mag.max()) * (1.0 + _U))
            v_norm = float(np.abs(v).max())
        # sum r = sum_i v_i (row sum i - 1) exactly
        r_sum = iv(self.row_defect) * iv(v_1)
        s = math.fsum(v.tolist())
        v_sum = Interval(math.nextafter(s, -math.inf), _up(s))
        if v_sum.contains_zero():
            return math.inf

        step, power = iv(self.op_norm), iv(1)
        s_c, s_r = iv(1), iv(1)  # the i = 0 terms: C_0 = R^0 = 1
        for c_i in c[:-1]:
            power = power * step
            s_r = s_r + power
            s_c = s_c + iv(min(c_i, power.hi))
        scale = iv(self.scale)
        denom = iv(1) - iv(c[-1]) - iv(self.row_defect) * scale * s_r
        if denom.lo <= 0.0:
            return math.inf
        inner = scale / abs(v_sum) * (iv(r_norm) + r_sum) * s_c / denom
        outer = abs(v_sum - scale) * iv(v_norm) / abs(v_sum)
        return (inner + outer).hi


def _model(matrix: TransitionMatrix) -> _Model:
    """The model of matrix; ValueError for an L1 matrix that is not exactly
    row-stochastic."""
    row_sums = matrix.row_sums()
    l1 = matrix.norm_kind == "L1"
    if l1 and ((matrix.csr.data < 0).any() or (row_sums != 1.0).any()):
        # exact: the 1-norm ledger needs entries >= 0 and fsum row sums of 1
        raise ValueError("matrix is not row-stochastic: a negative entry or "
                         "a row sum other than 1")
    at = matrix.csr.T.tocsr()
    at_abs = at if l1 else abs(at)
    col_counts = np.diff(at.indptr).astype(np.float64)
    # |row sum - 1| from the correctly rounded sums, one ulp added
    row_defect = _up(float((np.abs(row_sums - 1.0) + np.spacing(row_sums)).max()))
    # R: the largest row sum in L1 (no entry is negative), the largest
    # column sum in the sup norm
    op_norm = (_up(1.0 + row_defect) if l1
               else float(_sum_up(at_abs.sum(axis=1).max(), matrix.k)))
    return _Model(
        norm_kind=matrix.norm_kind, at=at, at_abs=at_abs,
        col_counts=col_counts, col_count=float(col_counts.max()),
        scale=1.0 if l1 else float(matrix.k), op_norm=op_norm,
        row_defect=row_defect, inflation=matrix.step_error)


def _run_batch(model: _Model, ids: np.ndarray, first: int) -> np.ndarray | None:
    """Iterate half-anchors scale*(e_0 - e_j)/2 for j in ids, one per column
    of a (k x len(ids)) block stepped by v -> at @ v (at is the transposed
    matrix, so each column follows the row action); return the
    (t x len(ids)) array of upward-rounded full-anchor norms, where t is
    the first step from first on at which the block's own bound passes
    N's test; None if no step up to _J_MAX does."""
    k = model.at.shape[0]
    v = np.zeros((k, len(ids)))
    v[ids, np.arange(len(ids))] = -0.5 * model.scale
    v[0, :] += 0.5 * model.scale
    # one buffer for all rows: small allocations between the block-sized
    # products fragment the heap and raise peak RSS by a block
    out = np.empty((_J_MAX, len(ids)))
    for t in range(1, _J_MAX + 1):
        v = model.at @ v
        out[t - 1] = 2.0 * model.col_norms(v)
        if t >= first and model.passes_n_true(
                model.bounds(out[:t].max(axis=1))[-1], t):
            return out[:t]
    return None


def _anchor_norms(model: _Model, first: int) -> np.ndarray:
    """(t x (k - 1)) anchor norms from _run_batch on blocks of
    _block_columns(k) anchors, spread over one thread per usable CPU.

    Each block stops at its first step from first on whose bound passes
    N's test, and the blocks that stopped before the largest stop t are
    stepped again to their first pass from t on, until all stop at t.
    Raises NotContractingError if some block has not passed by _J_MAX."""
    ids_all = np.arange(1, model.at.shape[0])
    width = _block_columns(model.at.shape[0])
    starts = range(0, len(ids_all), width)

    def block(start, first):
        return _run_batch(model, ids_all[start:start + width], first)

    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts))) as pool:
        blocks = list(pool.map(lambda s: block(s, first), starts))
        while True:
            if any(b is None for b in blocks):
                raise NotContractingError(
                    f"matrix not observed to contract within {_J_MAX} steps (no "
                    "certified anchor bound below 1/2); map may not be mixing")
            t = max(len(b) for b in blocks)
            short = [i for i, b in enumerate(blocks) if len(b) < t]
            if not short:
                return np.concatenate(blocks, axis=1)
            for i, b in zip(short, pool.map(lambda i: block(starts[i], t), short)):
                blocks[i] = b


def _first_passing(bounds: List[float], model: _Model):
    """(n_eps, n_true) from the bounds of steps 1, 2, ...; None where no
    step passes."""
    n_eps = next((t + 1 for t, b in enumerate(bounds) if b <= 0.5), None)
    n_true = next((t + 1 for t, b in enumerate(bounds)
                   if model.passes_n_true(b, t + 1)), None)
    return n_eps, n_true


def _fixed_vector(model: _Model, c: Sequence[float],
                  eps_num: float) -> EnclosedDensity:
    """Power iteration from the uniform vector until the one-step change
    is at rounding level, then the certified radius from c = (C_1, ...,
    C_n); more steps while the radius exceeds eps_num,
    NotContractingError after _J_MAX."""
    at = model.at
    rounding = model.col_count * _U
    v = np.full(at.shape[0], model.scale / at.shape[0])
    radius = math.inf
    for l in range(1, _J_MAX + 1):
        p = at @ v
        change, size = model.col_norms(np.column_stack([p - v, v]))
        if change <= rounding * size or l == _J_MAX:
            radius = model.radius(v, p, c)
            if radius <= eps_num:
                _log.info("fixed vector: %d power steps, radius=%.6g",
                          l, radius, extra={"power_steps": l, "radius": radius})
                return EnclosedDensity(values=v, radius=radius, l=l,
                                       norm_kind=model.norm_kind)
        v = p
    raise NotContractingError(
        f"fixed-vector enclosure radius {radius:.3g} still above eps_num "
        f"{eps_num:.3g} after {_J_MAX} power steps")


def contraction_sweep(matrix: TransitionMatrix, eps_num: float):
    """Certify contraction of Pi on V and enclose its fixed vector.

    Returns (ContractionCertificate, EnclosedDensity).  L1 mode works at
    mass scale (anchors e_0 - e_j, density of mass 1); sup mode at density
    scale (anchors k*(e_0 - e_j), density of mean 1).  The per-step
    inflation is matrix.step_error (for a LinfMatrix it holds m_sup and
    lin_err).  eps_num is the largest enclosure radius accepted: power
    steps go on until the certified radius is at most eps_num, and they
    stop near rounding level, where the radius is about 1e-14 (L1) in
    practice.  Each anchor step's bounds are logged at INFO level, then
    the power steps and radius.

    Raises NotContractingError if _J_MAX anchor steps pass without the
    certified bound dropping below 1/2, or _J_MAX power steps without the
    radius dropping to eps_num; ValueError for a nonpositive eps_num or an
    L1 matrix that is not exactly row-stochastic.
    """
    if eps_num <= 0:
        raise ValueError("eps_num must be positive")
    model = _model(matrix)

    # every block passes N's test by the global first pass, so a round
    # whose global test fails rules out every step it covered
    first, n_true = 1, None
    while n_true is None:
        norm_max = _anchor_norms(model, first).max(axis=1)
        bounds = model.bounds(norm_max)
        n_eps, n_true = _first_passing(bounds, model)
        first = len(bounds) + 1
    for t in range(len(bounds)):
        _log.info("step %d: max_norm=%.6g bound=%.6g",
                  t + 1, norm_max[t], bounds[t],
                  extra={"step": t + 1, "max_norm": float(norm_max[t]),
                         "bound": bounds[t]})
    cert = ContractionCertificate(
        n_eps=n_eps,
        n_true=n_true,
        per_step_bounds=[float(b) for b in bounds[:n_true]],
        inflation_per_step=model.inflation,
        norm_kind=model.norm_kind,
    )
    return cert, _fixed_vector(model, cert.per_step_bounds[:n_eps], eps_num)
