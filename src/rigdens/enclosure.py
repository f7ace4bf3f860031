"""Certified fixed-vector enclosure by simplex contraction.

The stationary vector of a row-stochastic matrix Pi is enclosed by iterating
the zero-sum anchor vectors (e_0 - e_j)/2 under the row action v -> v Pi and
watching their norms: once every anchor norm is at most half the numeric
threshold eps_num, the iterated simplex has diameter at most eps_num (for
probability vectors p, q, p - q = sum_j (q_j - p_j)(e_0 - e_j) with
sum_j |q_j - p_j| <= 2), the amount the certificate charges, and any
iterated start vector lies inside it together with the true fixed
vector.  The same sweep certifies the contraction step counts used by the
a-posteriori error bound: N_eps for the computed matrix itself and N for
the exact discretized operator, whose extra distance is charged linearly
per step ("inflation").

Norm evaluations are upward-rounded and every floating-point matrix-vector
product is covered by an explicit error ledger, so all reported bounds are
rigorous upper bounds.  In L1 mode the matrix is first checked to be
exactly row-stochastic (nonnegative entries, correctly rounded row sums
equal to 1), the property the ledger and the anchor argument rest on.

The anchors are stepped in cache-sized blocks of columns (about 2^20
doubles each), and the blocks are spread over a thread pool with one
thread per CPU this process may use; scipy's sparse product and numpy's
reductions release the GIL.  Each anchor column sees the same arithmetic
in the same order whatever the block width or thread count, so every
result is independent of both.

In sup-norm mode anchors are scaled by the partition size so thresholds are
expressed at density scale, where the certificate formulas consume them.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy import sparse

from .intervals import EPS_MACH, iv
from .ulam import TransitionMatrix

__all__ = [
    "ContractionCertificate",
    "EnclosedDensity",
    "NotContractingError",
    "contraction_sweep",
]

_U = 2.0 ** -53  # unit roundoff of binary64
_BLOCK_ENTRIES = 1 << 20  # doubles per anchor block (8 MiB)
_MIN_BLOCK_COLUMNS = 16  # keeps large k off one sparse mat-vec per anchor

_log = logging.getLogger(__name__)


class NotContractingError(RuntimeError):
    """Raised when no contraction is observed within the step budget."""


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
    """Fixed-vector enclosure: the true fixed vector of the swept matrix
    lies within diameter + float_err of values in the active norm."""

    values: np.ndarray
    diameter: float
    l: int
    float_err: float
    norm_kind: str


def _float_ledger(l: int, k: int) -> float:
    """Accumulated matrix-vector roundoff estimate l * k * eps_mach."""
    return l * k * EPS_MACH


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _upper_abs_col_sums(v: np.ndarray) -> np.ndarray:
    """Rigorous upper bounds of per-column 1-norms of a dense matrix."""
    k = v.shape[0]
    if v.shape[1] == 1:
        # numpy sums one contiguous column pairwise; a running sum adds it
        # in row order, as every column of a wider block is added
        s = np.cumsum(np.abs(v[:, 0]))[-1:]
    else:
        s = np.abs(v).sum(axis=0)
    infl = 1.0 + 1.02 * k * _U
    return np.nextafter(s * infl, math.inf)


def _block_columns(k: int) -> int:
    """Default anchors per block: about _BLOCK_ENTRIES doubles of k rows."""
    return min(k - 1, max(_MIN_BLOCK_COLUMNS, _BLOCK_ENTRIES // k))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_batch(at: sparse.csr_matrix, ids: np.ndarray, steps: int,
               scale: float, norm_kind: str) -> np.ndarray:
    """Iterate half-anchors scale*(e_0 - e_j)/2 for j in ids, one per column
    of a (k x len(ids)) block stepped by v -> at @ v (at is the transposed
    matrix, so each column follows the row action); return the
    (steps x len(ids)) array of upward-rounded full-anchor norms."""
    k = at.shape[0]
    v = np.zeros((k, len(ids)))
    v[ids, np.arange(len(ids))] = -0.5 * scale
    v[0, :] += 0.5 * scale
    out = np.empty((steps, len(ids)))
    for t in range(steps):
        v = at @ v
        if norm_kind == "L1":
            out[t] = 2.0 * _upper_abs_col_sums(v)
        else:
            out[t] = 2.0 * np.abs(v).max(axis=0)
    return out


def _anchor_norms(at: sparse.csr_matrix, steps: int, scale: float,
                  norm_kind: str, batch_size: int) -> np.ndarray:
    """(steps x (k - 1)) anchor norms from _run_batch on blocks of
    batch_size anchors, spread over one thread per usable CPU."""
    ids_all = np.arange(1, at.shape[0])
    starts = range(0, len(ids_all), batch_size)
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts))) as pool:
        blocks = pool.map(
            lambda s: _run_batch(at, ids_all[s:s + batch_size], steps,
                                 scale, norm_kind),
            starts)
        return np.concatenate(list(blocks), axis=1)


def _drift_sequence(norm_max: np.ndarray, scale: float, col_count: int,
                    colsum_up: float, norm_kind: str) -> np.ndarray:
    """Cumulative float-error bounds (full-anchor scale) per step.

    One product of a float vector v with the nonnegative matrix A obeys
    ||fl(vA) - vA|| <= gamma_C * ||v||_1 (1-norm, row sums 1) respectively
    gamma_C * ||v||_inf * S (sup norm, S = max column sum); accumulated
    error additionally rides through A, which expands the 1-norm by at most
    1 and the sup norm by at most S.
    """
    gamma = 1.01 * col_count * _U
    expand = 1.0 if norm_kind == "L1" else colsum_up
    drift = 0.0
    prev_norm = scale  # full-anchor norm before the first multiply
    out = np.empty(len(norm_max))
    for t in range(len(norm_max)):
        drift = drift * expand + gamma * expand * (prev_norm + drift)
        out[t] = drift
        prev_norm = norm_max[t]
    return out


def contraction_sweep(matrix: TransitionMatrix, eps_num: float,
                      j_max: int = 200, batch_size: Optional[int] = None):
    """Certify contraction of Pi on V and enclose its fixed vector.

    Returns (ContractionCertificate, EnclosedDensity).  L1 mode works at
    mass scale (anchors e_0 - e_j); sup mode at density scale (anchors
    k*(e_0 - e_j)), so eps_num means the same thing the certificate's
    numeric-error term does in both cases.  A sup-norm matrix is a
    LinfMatrix, whose m_sup and lin_err enter the per-step inflation.

    batch_size is the number of anchors per block (default: about
    _BLOCK_ENTRIES doubles per block, at least _MIN_BLOCK_COLUMNS anchors);
    it changes speed and memory, not results.  Each step's bounds are
    logged at INFO level.

    Raises NotContractingError if j_max steps pass without the certified
    bound dropping below 1/2 or some anchor staying above eps_num/2, and
    ValueError for a nonpositive eps_num or an L1 matrix that is not
    exactly row-stochastic.
    """
    if eps_num <= 0:
        raise ValueError("eps_num must be positive")
    if matrix.norm_kind == "L1" and (
            (matrix.csr.data < 0).any() or (matrix.row_sums() != 1.0).any()):
        # exact: the 1-norm ledger needs entries >= 0 and fsum row sums of 1
        raise ValueError("matrix is not row-stochastic: a negative entry or "
                         "a row sum other than 1")
    a = matrix.csr
    k = matrix.k
    norm_kind = matrix.norm_kind
    scale = 1.0 if norm_kind == "L1" else float(k)
    if norm_kind == "L1":
        inflation = (iv(2) * iv(matrix.nnz_max) * iv(matrix.eps)).hi
    else:
        inflation = (iv(2) * iv(matrix.m_sup) * iv(matrix.m_sup)
                     * (iv(matrix.eps) + iv(matrix.lin_err))).hi

    if batch_size is None:
        batch_size = _block_columns(k)
    at = a.T.tocsr()
    # the rows of at are the columns of a
    col_count = int(np.diff(at.indptr).max())
    colsum_up = _up(float(np.abs(at).sum(axis=1).max()) * (1.0 + 1.02 * k * _U))

    steps = min(j_max, 16)
    while True:
        norms_steps = _anchor_norms(at, steps, scale, norm_kind, batch_size)
        norm_max = norms_steps.max(axis=1)
        drift = _drift_sequence(norm_max, scale, col_count, colsum_up, norm_kind)
        bounds = [_up(norm_max[t] + 2.0 * drift[t]) for t in range(steps)]

        n_eps = next((t + 1 for t in range(steps) if bounds[t] <= 0.5), None)
        n_true = next(
            (t + 1 for t in range(steps)
             if (iv(bounds[t]) + iv(t + 1) * iv(inflation)).hi <= 0.5),
            None,
        )
        below = norms_steps <= eps_num / 2
        l_per_anchor = np.where(below.any(axis=0), below.argmax(axis=0) + 1, 0)
        l_ok = bool((l_per_anchor > 0).all())
        for t in range(steps):
            _log.info("step %d: max_norm=%.6g bound=%.6g",
                      t + 1, norm_max[t], bounds[t],
                      extra={"step": t + 1, "max_norm": float(norm_max[t]),
                             "bound": bounds[t]})
        if n_eps is not None and n_true is not None and l_ok:
            break
        if steps >= j_max:
            raise NotContractingError(
                "matrix not observed to contract within "
                f"{j_max} steps; map may not be mixing"
            )
        steps = min(j_max, steps * 2)

    l = int(l_per_anchor.max())
    cert = ContractionCertificate(
        n_eps=n_eps,
        n_true=n_true,
        per_step_bounds=[float(b) for b in bounds[: max(n_eps, n_true)]],
        inflation_per_step=inflation,
        norm_kind=norm_kind,
    )

    v = np.full(k, scale / k) if norm_kind == "L1" else np.ones(k)
    for _ in range(l):
        v = v @ a
    if norm_kind == "L1":
        # restore unit mass; the scaling perturbs each entry by at most the
        # accumulated drift, which the float_err budget below absorbs
        v = v / math.fsum(v)
    density_drift = float(drift[min(l, steps) - 1]) if l > 0 else 0.0
    float_err = 3.0 * _float_ledger(l, k) + 6.0 * density_drift
    dens = EnclosedDensity(
        values=v,
        diameter=eps_num,
        l=l,
        float_err=float_err,
        norm_kind=norm_kind,
    )
    return cert, dens
