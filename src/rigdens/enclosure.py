"""Contraction certificate and a-posteriori fixed-vector enclosure.

Both jobs concern a row-stochastic matrix Pi acting on row vectors
v -> v Pi, in the active norm ||.|| (L1, or sup at density scale).

Both proofs read Pi through one model (_Model), which charges every
rounding a gamma_n of intervals._gamma: the float error of a
product with Pi is bounded through R, a bound on ||Pi|| on all vectors
(the largest row sum in L1, the largest column sum in the sup norm), the
growth of that error over m more steps by R^m in L1 and by the sharper
rho_m = max_j (1 |Pi|^m)_j in the sup norm, and one scale s (1 in L1, the
partition size k in the sup norm) is the anchor scale, the mass of the
fixed vector and the bound on ||w||_1 / ||w|| for every w.  Only _model
sets R (in L1 the upper end of the interval 1 + delta), and only _powers
R^i: the caps of rho_m, the radius and the witness, and the c_i of
rigdens.certify's L1 matrix term.

Contraction.  The zero-sum anchors s (e_0 - e_j) are iterated under the
row action and their norms watched: every zero-sum vector is a
combination of anchors with coefficients of total size at most its norm
(for the 1-norm, p - q = sum_j (q_j - p_j)(e_0 - e_j)), so the largest
anchor norm after t steps bounds C_t = ||Pi^t|_V||, at density scale in
the sup norm.  The proof needs a certified bound below 1/2, not 16
digits, so the anchors step in float32 with a float32 copy of Pi.  Their
norms are summed upward in float64, and an explicit drift ledger (_Model)
covers every float32 product, the rounding of Pi's entries to float32
and the products below float32's normal range.  The sweep certifies
N_eps, the first t with C_t <= 1/2 for the computed matrix, and N, which
also charges t times the per-step "inflation" ||P - Pi|| (the matrix's
step_error) that bounds the distance to the exact discretized operator.
Every anchor steps once to a horizon, the step at which the witness
below passes N's test, at most N (_witness, _anchor_norms).

In L1 the sweep sums its anchors' columns only from measured_from on, the
first step t at which the largest full-anchor norm of a witness block of
_WITNESS evenly spaced anchors is at most R^t.  At every earlier step the
largest norm of all anchors exceeds R^t as well, so the step fails both
tests and the radius caps C_t at R^t whatever the other anchors measure.
The blocks record the a-priori norm 2 h^_t there (_Model), which needs no
sum and fails both tests too, so only the drift of later steps, charged
on h^_t, can grow.  The sup-norm sweep measures every step: there h^_0
= k/2 would raise the drift, and its norms are two plain reductions.

Fixed vector.  v is iterated in float (v <- fl(v Pi), O(nnz) per step)
until the one-step change reaches rounding level, and the exact residual
r = v Pi - v is then enclosed element by element (_Model.residual).  The
rows sum to 1 only to within delta, so the fixed vector f is any vector
of mass s with f Pi - f = c e_j for one j and some c.  With
v' = v s / sum(v) and r' = r s / sum(v), e = v' - f lies in V and
e - e Pi = -(r' - (sum r') e_j) - c' e_j, where c' = sum_i e_i d_i for
the row-sum defects |d_i| <= delta is at most delta s ||e|| and grows by
at most R^i in i steps (likewise |sum r| <= delta ||v||_1).  So the
radius of the returned enclosure, the certificate's numeric error, is
fixed_point_bound with L_delta = Pi, n = N_eps, c = (1, min(C_i, R^i)
for 0 < i < n), alpha = C_n + delta s sum_{i<n} R^i and defect
s/|sum v| (||r|| + |sum r|), plus |sum v - s| ||v|| / |sum v| for
||v - v'||; R^i stands for any bound on ||Pi^i|| (rho_i in the sup
norm, _Model).  Power steps continue until it is at most eps_num.  The
matrix must be nonnegative with correctly rounded row sums of 1, so
delta is 2^-53 rounded up and R = 1 + 2^-52 in L1.

The anchors step in blocks of columns (_block_columns) on a thread pool
with one thread per usable CPU; scipy's compiled sparse kernels (called
directly, rigdens._csr) and numpy's reductions release the GIL.  A block
is 128 anchors wide, not a CPU's share of them, within an entry budget
of 4 MiB, so a thread's buffers grow with k only up to that budget, and
each CPU gets several blocks to balance its load.  A block starts
sparse, as (e_0 - e_j) Pi^t has small support until a cell's image
covers [0, 1], and turns dense once more than _SPARSE_FILL of its
entries are stored, in one of the two buffers its thread keeps for the
whole sweep (_half_anchors).  Each anchor column sees the same float32
arithmetic in the same order whatever the block width, thread count or
storage, so no result depends on them: both products add an entry's
terms in the order of the stored row of Pi transposed, the sparse one
skipping only exact zeros, and the L1 column sums add a column's entries
in row order, in float64.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Sequence

import numpy as np

from . import _csr
from ._csr import CSR
from .intervals import (_ETA, _U, Interval, IntervalArray, _fsum, _gamma,
                        _split, _up, _v_scale_up, iv)
from .ulam import TransitionMatrix

__all__ = [
    "ContractionCertificate",
    "EnclosedDensity",
    "NotContractingError",
    "contraction_sweep",
    "fixed_point_bound",
]

_U32 = 2.0 ** -24  # unit roundoff of binary32, in which the anchors step
_ETA32 = 2.0 ** -149  # smallest binary32 subnormal
# anchors per block where a dense step's cost flattens at large k; at
# k = 1024 on two CPUs they hold 6 MiB less of block buffers than blocks
# of 512, and SINMAP's sweep runs no slower beyond the host's noise
_BLOCK_COLUMNS = 128
_BLOCK_ENTRIES = 1 << 20  # most float32 entries per anchor block (4 MiB)
_MIN_BLOCK_COLUMNS = 16  # keeps large k off one sparse mat-vec per anchor
_SPARSE_FILL = 0.03  # a block steps sparse while at most this share is nonzero
_J_MAX = 200  # most anchor steps, and most power steps
_WITNESS = 16  # evenly spaced anchors that set an L1 sweep's measured_from

_log = logging.getLogger(__name__)


class NotContractingError(RuntimeError):
    """Raised when no contraction is observed within the step budget, or
    the fixed-vector enclosure stays wider than eps_num."""


def fixed_point_bound(c: Sequence[float | Interval], alpha: float | Interval,
                      defect: float | Interval) -> float:
    """(defect sum_{i<N} c_i) / (1 - alpha), N = len(c), rounded up: the
    fixed-point lemma behind every term of eps_rig (rigdens.certify
    tabulates them).  inf where 1 - alpha is not certified positive;
    ValueError for an empty c.

    Lemma.  Let L_delta map the zero-mass subspace V into itself, with
    ||L_delta^i|_V|| <= c_i for i < N (c_0 = 1 always holds) and
    ||L_delta^N|_V|| <= alpha < 1.  Every e in V obeys ||e|| <=
    ||e - L_delta e|| sum_{i<N} c_i / (1 - alpha), since the sum telescopes
    in e = sum_{i<N} L_delta^i (e - L_delta e) + L_delta^N e.  For
    e = f - f_delta, fixed vectors of L and L_delta of equal mass,
    e - L_delta e = (L - L_delta) f: the paper's form.  Where a stored
    matrix's row sums miss 1, e - L_delta e leaves V; the callers split
    the excess off as a multiple of one unit vector and charge it in
    defect, or in alpha where it is at most a multiple of ||e|| (the
    module docstring, and the matrix terms of rigdens.certify).
    """
    if len(c) == 0:
        raise ValueError("fixed_point_bound needs at least one c_i (N >= 1)")
    room = iv(1) - iv(alpha)
    if room.lo <= 0.0:
        return math.inf
    return (iv(defect) * sum(map(iv, c), iv(0)) / room).hi


def _powers(r: float) -> Iterator[float]:
    """r^i for i = 0, 1, ..., the upper ends of interval powers."""
    power = iv(1)
    while True:
        yield power.hi
        power = power * iv(r)


def _l1_norm(delta: float) -> float:
    """R in L1, 1 + delta rounded up: no row of a nonnegative Pi sums above."""
    return (iv(1) + iv(delta)).hi


def _leak(delta: float, s: float, powers: Sequence[float]) -> Interval:
    """delta s sum_{i<n} R^i, alpha's share of the row defects (module doc)."""
    return iv(delta) * iv(s) * sum(map(iv, powers), iv(0))


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction data for the zero-average subspace V.

    per_step_bounds[t-1] is a rigorous upper bound on ||Pi^t|_V|| in the
    active norm, float ledger included.  n_eps is the first t with bound
    <= 1/2; n_true additionally charges the per-step inflation that bounds
    the distance to the exact discretized operator.  row_defect is delta,
    a bound on every |row sum - 1| of Pi (module docstring).
    measured_from is the first step whose anchor norms were measured; the
    bounds of the steps before it are a priori, and at least 2 in L1
    (_Model), where both tests fail and the radius caps them at R^t.
    """

    n_eps: int
    n_true: int
    per_step_bounds: List[float]
    row_defect: float
    norm_kind: str
    measured_from: int = 1


@dataclass(frozen=True)
class EnclosedDensity:
    """Fixed-vector enclosure: the fixed vector of the swept matrix lies
    within radius of values in the active norm (module docstring); l is
    the number of power steps v -> v Pi computed."""

    values: np.ndarray
    radius: float
    l: int
    norm_kind: str

    @property
    def density_values(self) -> np.ndarray:
        """The density on cell i (L1, values are masses) or at node i/k."""
        return (len(self.values) if self.norm_kind == "L1" else 1) * self.values

    @property
    def cell_masses(self) -> IntervalArray:
        """The mass on each cell: the values in L1, (v_i + v_(i+1)) / (2k) for
        the sup norm's density, linear between its nodes around the circle."""
        vals = IntervalArray(self.values)
        if self.norm_kind == "L1":
            return vals
        return (vals + IntervalArray(np.roll(self.values, -1))) / 2 / len(self.values)


@functools.lru_cache(maxsize=None)
def _sum_factor(n: int) -> float:
    """1 + gamma_(n-1) rounded up (inf where (n - 1) u >= 1).  A float
    sum s of n nonnegative terms, added in any order, obeys |s - S| <=
    (n - 1) u S for their exact sum S (Jeannerod and Rump, 2013), so
    S <= s / (1 - (n - 1) u) = s (1 + gamma_(n-1))."""
    return (iv(1) + _gamma(max(int(n) - 1, 0), _U)).hi


def _per_count(fn, counts: np.ndarray) -> np.ndarray:
    """fn(n) for each count n of counts, evaluated once per distinct count."""
    distinct, at = np.unique(counts, return_inverse=True)
    return np.array([fn(int(n)) for n in distinct])[at]


def _split_factors(factor) -> tuple:
    """(factor, _split(factor)): _v_scale_up's factor operands, split once."""
    factor = np.asarray(factor, np.float64)
    return factor, _split(factor)


@functools.lru_cache(maxsize=None)
def _sum_split(n: int) -> tuple:
    """_split_factors(_sum_factor(n)), split once per n."""
    return _split_factors(_sum_factor(n))


def _sum_up(s, n: int):
    """Upper bound of the exact sum behind each float sum s of n
    nonnegative terms, elementwise: s _sum_factor(n), stepped up only
    where the product missed (an exact sum of exact terms stays within one
    ulp)."""
    return _v_scale_up(np.asarray(s, np.float64), *_sum_split(n))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_columns(k: int) -> int:
    """Anchors per block, for the k - 1 anchors: _BLOCK_COLUMNS, but
    never wider than the entry budget of _BLOCK_ENTRIES entries of k rows
    (or the _MIN_BLOCK_COLUMNS that the witness's buffers hold anyway),
    nor than one CPU's share rounded down, so every usable CPU gets a
    block wherever there are as many anchors as CPUs.  A thread's buffers
    thus grow with k only up to the entry budget."""
    share = max(1, (k - 1) // _usable_cpus())
    budget = max(_MIN_BLOCK_COLUMNS, _BLOCK_ENTRIES // k)
    return min(_BLOCK_COLUMNS, budget, share)


class _SupGrowth:
    """rho_m >= ||Pi^m|| in the sup norm for m = 0, 1, ...: the largest
    entry of 1 Pi^m enclosed upward (_Model.product_up), capped at R^m.
    Extended on demand, one O(nnz) product per step, by one thread."""

    def __init__(self, model: "_Model"):
        self._model = model
        self._u = np.ones(model.at.shape[0])  # 1 |Pi|^m, enclosed upward
        self._caps = _powers(model.op_norm)
        self._rho = [next(self._caps)]
        self._lock = threading.Lock()

    def upto(self, m: int) -> List[float]:
        """[rho_0, ..., rho_m]."""
        with self._lock:
            while len(self._rho) <= m:
                self._u = self._model.product_up(self._u)
                self._rho.append(min(float(self._u.max()), next(self._caps)))
            return self._rho[:m + 1]


@dataclass(frozen=True)
class _Model:
    """The swept matrix Pi as both proofs read it, built once by _model.

    scale is s, op_norm R and row_defect delta of the module docstring;
    inflation is ||P - Pi||; C_j counts the stored entries of column j,
    and C is their maximum.  Pi >= 0 (_model), so |Pi| = Pi.

    Products (product_up).  For x >= 0, each rounded product of fl(x Pi)
    is within gamma_1 of its true value or at most eta/2 under it (eta =
    2^-1074), so with the exact term C_j eta column j is a float sum of
    C_j + 1 terms, and (1 + gamma_1)(1 + gamma_(C_j)) <= 1 + gamma_(C_j+1),
    the _sum_factor of C_j + 2 terms, bounds the exact x Pi.

    Anchor steps.  The anchors step with Pi32, Pi rounded to float32
    (at32), in float32 arithmetic, unit roundoff u = 2^-24 and smallest
    subnormal eta = 2^-149.  One step of a float32 vector v obeys, in
    either norm,

        ||fl(v Pi32) - v Pi|| <= (gamma_C (1 + u) + u) R ||v||
                                 + (1 + gamma_C) eta/2 k (||v|| + C s),

    the fresh error of the step (fresh): gamma_C |v| |Pi32| for the products
    and sums, |Pi32| <= (1 + u) |Pi|, u |Pi| for rounding each entry, and
    eta/2 for each entry or product that falls below float32's normal range
    (at most k per row or column of Pi, nnz <= k C products, s >= 1), grown
    by at most 1 + gamma_C in the sums.  The drift is the cumulative float
    error of the half-anchors, and a step's bound is its largest full-anchor
    norm plus twice the drift, rounded up.  Let h_t be a computed
    half-anchor after t steps, so h_t = fl(h_(t-1) Pi32) = h_(t-1) Pi + e_t
    with ||e_t|| <= fresh(||h_(t-1)||), and the exact half-anchor is
    h_0 Pi^t.  Then h_t - h_0 Pi^t = sum_s e_s Pi^(t-s), so the drift is
    sum_s ||Pi^(t-s)|| ||e_s|| in both norms, ||Pi^m|| from powers.  Each
    e_s is charged on the norm of the vector actually stepped:
    h_0 = s (e_0 - e_j)/2 exactly, of norm s in L1 and s/2 in the sup norm,
    and for t >= 2 ||h_(t-1)|| is at most half the full-anchor norm of step
    t - 1, measured or a priori (below), a bound on the computed vector
    itself, so no drift enters the charge (fresh is increasing in the norm,
    so the block's largest norm covers every anchor; these norms are twice a
    float, so halving them is exact).  In L1, ||Pi^m|| <= R^m.  In the sup
    norm, ||Pi^m|| is at most rho_m = max_j (1 Pi^m)_j, 1 the all-ones row
    vector (growth), since |(e Pi^m)_j| <= sum_i |e_i| (Pi^m)_ij <=
    ||e|| (1 Pi^m)_j.  rho_m is enclosed upward and capped at R^m, so this
    drift never exceeds the R^m one, and it stays bounded where R^m
    outgrows the anchors' own ||Pi^m|| (a column sum above 1 next to row
    sums of 1).

    A-priori norms (a_priori_norms).  Let h^_0 = ||h_0|| and h^_t =
    up(R h^_(t-1) + fresh(h^_(t-1))).  Every computed half-anchor obeys
    ||h_t|| <= h^_t: by induction, ||h_t|| <= ||h_(t-1) Pi|| + ||e_t|| <=
    R ||h_(t-1)|| + fresh(||h_(t-1)||), and both terms increase in
    ||h_(t-1)||.  So 2 h^_t bounds every full-anchor norm after t steps
    without reading one, and bounds charges it as it charges a measured
    norm, the next step on half = h^_t.  In L1, h^_t >= R^t h^_0 = R^t
    exactly, so the bound of such a step is at least 2 R^t >= 2: it fails
    both tests (bound <= 1/2, and bound plus t inflations <= 1/2), and the
    radius caps it at R^t (powers), as it caps any measured bound above
    R^t.
    """

    norm_kind: str
    at: CSR  # Pi transposed: its rows are the columns of Pi
    at32: CSR  # at rounded to float32: steps the anchors
    col_counts: np.ndarray  # C_j, nonzeros per column of Pi
    col_factors: tuple  # _sum_factor(C_j + 2), split: product_up's factors
    col_gammas: np.ndarray  # gamma_(C_j), rounded up: residual's rates
    col_count: float  # C, their maximum
    scale: float
    op_norm: float  # R
    row_defect: float  # delta
    inflation: float
    fresh_rate: float  # (gamma_C (1 + u) + u) R + (1 + gamma_C) eta/2 k
    fresh_floor: float  # (1 + gamma_C) eta/2 k C s
    growth: _SupGrowth | None = field(init=False)  # rho_m; None in L1

    def __post_init__(self):
        growth = None if self.norm_kind == "L1" else _SupGrowth(self)
        object.__setattr__(self, "growth", growth)

    def col_norms(self, v, spare=None) -> np.ndarray:
        """Float64 upper bounds of the norms of the columns of a dense or
        CSR block of float32 or float64 entries; sums are taken in float64.
        A dense L1 block takes |v| in spare, an array of v's shape and
        dtype whose contents may be overwritten (not v itself); None
        allocates it."""
        if isinstance(v, CSR):
            if self.norm_kind == "Linf":
                # exact in any dtype, and far slower into a wider one
                out = np.zeros(v.shape[1], dtype=v.data.dtype)
                np.maximum.at(out, v.indices, np.abs(v.data))
                return out.astype(np.float64)
            # adds each column's stored entries in row order, as the dense
            # sum adds the whole column; the skipped entries are exact zeros
            mag = np.abs(v.data, dtype=np.float64)
            return _sum_up(np.bincount(v.indices, weights=mag,
                                       minlength=v.shape[1]), v.shape[0])
        if self.norm_kind == "Linf":
            # max |v| without a block-sized temporary
            return np.maximum(v.max(axis=0), -v.min(axis=0)).astype(np.float64)
        mag = np.abs(v, out=spare)
        if v.shape[1] == 1:
            # numpy sums one contiguous column pairwise; a running sum adds it
            # in row order, as every column of a wider block is added
            return _sum_up(np.cumsum(mag[:, 0], dtype=np.float64)[-1:],
                           v.shape[0])
        return _sum_up(mag.sum(axis=0, dtype=np.float64), v.shape[0])

    def product_up(self, x: np.ndarray) -> np.ndarray:
        """Upper bounds of the exact x Pi for x >= 0 (class docstring)."""
        return _v_scale_up(_csr.matvec(self.at, x) + self.col_counts * _ETA,
                           *self.col_factors)

    def fresh(self, norm: float) -> float:
        """The fresh error of one anchor step from a vector of norm at most
        norm, rounded up; inf where gamma_C is unbounded, also for a norm
        of 0 (a column of exact zeros sums to 0)."""
        if self.fresh_rate == math.inf:
            return math.inf
        return _up(_up(self.fresh_rate * norm) + self.fresh_floor)

    def half_start(self) -> float:
        """||h_0||, the norm of the half-anchor s (e_0 - e_j)/2."""
        return self.scale if self.norm_kind == "L1" else self.scale / 2

    def powers(self) -> Iterator[float]:
        """Bounds on ||Pi^i|| for i = 0, 1, ..., rounded up: R^i in L1,
        rho_i in the sup norm; the caps of the radius and of the witness."""
        if self.growth is None:
            return _powers(self.op_norm)
        return (self.growth.upto(i)[i] for i in itertools.count())

    def a_priori_norms(self, n: int) -> List[float]:
        """2 h^_t for t = 1, ..., n, bounds on the full-anchor norms of
        every computed anchor after t steps (class docstring); no product
        is read."""
        h, out = self.half_start(), []
        for _ in range(n):
            h = _up(_up(self.op_norm * h) + self.fresh(h))
            out.append(2.0 * h)
        return out

    def bounds(self, norm_max: Sequence[float]) -> List[float]:
        """The bounds of steps 1, 2, ... from the largest full-anchor norm
        of each step, measured or a priori, drift included (class
        docstring)."""
        powers = list(itertools.islice(self.powers(), len(norm_max)))
        out, fresh = [], []
        half = self.half_start()  # the norm of the half-anchor stepped next
        for t, m in enumerate(norm_max, 1):
            fresh.append(self.fresh(half))
            # sum over s of ||Pi^(t-s)|| times the fresh error of step s
            drift = _up(math.fsum(_up(f * r) for f, r in
                                  zip(fresh, powers[t - 1::-1])))
            out.append(_up(m + 2.0 * drift))
            half = m / 2
        return out

    def passes_n_true(self, bound: float, t: int) -> bool:
        """N's test at step t: bound plus t inflations at most 1/2."""
        return (iv(bound) + iv(t) * iv(self.inflation)).hi <= 0.5

    def residual(self, v: np.ndarray, p: np.ndarray) -> IntervalArray:
        """An enclosure of the exact v Pi - v, element by element, from
        p = fl(v Pi): p - v in interval arithmetic (exact where p_j is
        within a factor 2 of v_j, Sterbenz), widened by gamma_(C_j) A_j +
        C_j eta, A = product_up(|v|).  A float dot product of C_j terms
        misses by at most gamma_(C_j) (|v| Pi)_j + (1 + gamma_(C_j-1)) C_j
        eta/2 (Higham, 3.1; products underflow by at most eta/2, sums are
        exact there), and gamma_(C_j-1) <= 1 for every C_j < 2^52."""
        miss = (IntervalArray(self.col_gammas) * self.product_up(np.abs(v))
                + self.col_counts * _ETA).hi
        return IntervalArray(p) - IntervalArray(v) + IntervalArray(-miss, miss)

    def radius(self, v: np.ndarray, p: np.ndarray, c: Sequence[float]) -> float:
        """The certified ||v - f|| of the module docstring from one float
        product p = fl(v Pi) and c = (C_1, ..., C_n); inf where the bound's
        denominator is not positive."""
        k = len(v)
        mag = abs(self.residual(v, p)).hi
        v_1 = _sum_up(np.abs(v).sum(), k)
        if self.norm_kind == "L1":
            r_norm, v_norm = _sum_up(mag.sum(), k), v_1
        else:
            r_norm, v_norm = float(mag.max()), float(np.abs(v).max())
        # sum r = sum_i v_i (row sum i - 1) exactly
        r_sum = iv(self.row_defect) * iv(v_1)
        v_sum = _fsum(IntervalArray(v))
        if v_sum.contains_zero():
            return math.inf

        # the i = 0 terms are C_0 = ||Pi^0|| = 1
        powers = list(itertools.islice(self.powers(), len(c)))
        caps = [1.0] + [min(c_i, p) for c_i, p in zip(c[:-1], powers[1:])]
        scale = iv(self.scale)
        inner = fixed_point_bound(
            caps, iv(c[-1]) + _leak(self.row_defect, self.scale, powers),
            scale / abs(v_sum) * (iv(r_norm) + r_sum))
        outer = abs(v_sum - scale) * iv(v_norm) / abs(v_sum)
        return (iv(inner) + outer).hi


def _model(matrix: TransitionMatrix) -> _Model:
    """The model of matrix; ValueError for a matrix that is not exactly
    row-stochastic, or a sup-norm one with k > 2^24."""
    if (matrix.csr.data < 0).any() or (matrix.row_sums() != 1.0).any():
        # exact: both ledgers need entries >= 0 and fsum row sums of 1
        raise ValueError("matrix is not row-stochastic: a negative entry or "
                         "a row sum other than 1")
    l1 = matrix.norm_kind == "L1"
    at = _csr.transpose(matrix.csr)
    col_counts = np.diff(at.indptr).astype(np.float64)
    col_count = float(col_counts.max())
    # every row's correctly rounded sum is 1, so its exact sum lies within
    # half the gap below 1 (2^-54) or above it (2^-53)
    row_defect = _up(2.0 ** -53)
    # R: the largest row sum in L1, the largest column sum in the sup norm,
    # a float sum of at most k exact terms
    op_norm = (_l1_norm(row_defect) if l1
               else float(_sum_up(_csr.row_sums(at).max(), matrix.k)))
    if not l1 and matrix.k > 1 << 24:
        raise ValueError("the sup-norm sweep needs k <= 2^24: its float32 "
                         "anchors start at k/2")
    scale = 1.0 if l1 else float(matrix.k)
    # the fresh-error constants of the class docstring, rounded up
    gamma = _gamma(int(col_count), _U32)
    under = (iv(1) + gamma) * iv(_ETA32 / 2) * iv(matrix.k)
    fresh_rate = ((gamma * iv(1 + _U32) + iv(_U32)) * iv(op_norm) + under).hi
    fresh_floor = (under * iv(col_count) * iv(scale)).hi
    return _Model(
        norm_kind=matrix.norm_kind, at=at,
        at32=replace(at, data=at.data.astype(np.float32)),
        col_counts=col_counts,
        col_factors=_split_factors(_per_count(_sum_factor, col_counts + 2)),
        col_gammas=_per_count(lambda n: _gamma(n, _U).hi, col_counts),
        col_count=col_count, scale=scale,
        op_norm=op_norm, row_defect=row_defect, inflation=matrix.step_error,
        fresh_rate=fresh_rate, fresh_floor=fresh_floor)


def _step(at32: CSR, v, out: np.ndarray):
    """at32 @ v: a new CSR block for a CSR v (_csr.matmat); for a dense v,
    written into out, a C-contiguous block of the product's shape and
    at32's dtype (_csr.matvecs)."""
    if isinstance(v, CSR):
        return _csr.matmat(at32, v)
    return _csr.matvecs(at32, v, out)


def _half_anchors(model: _Model, ids: np.ndarray, bufs: Sequence[np.ndarray]):
    """Yield (t, y, spare) for t = 1, ..., _J_MAX: y is the float32
    (k x len(ids)) block of half-anchors scale*(e_0 - e_j)/2, j in ids,
    after t steps v -> at32 @ v (at32 is the transposed matrix, so each
    column follows the row action; the start is exact in float32 for every
    k <= 2^24), and spare the idle array of y's shape that col_norms(y,
    spare) may overwrite.

    The block starts as a CSR matrix and turns dense before the first
    product at which more than _SPARSE_FILL of its entries are stored
    (same norms bit for bit, module docstring).  bufs are two float32
    arrays of at least k len(ids) entries: the dense block and each
    product alternate between them, and the idle one holds the
    temporary of the norms, so a dense step allocates nothing
    block-sized (a fresh block would fault in its pages)."""
    k, width = model.at.shape[0], len(ids)
    a, b = (buf[:k * width].reshape(k, width) for buf in bufs)
    # row 0 holds +scale/2 in every column, row ids[c] -scale/2 in column c
    counts = np.zeros(k, np.intp)
    counts[0], counts[ids] = width, 1
    v = CSR(np.repeat(np.float32([0.5, -0.5]), width) * np.float32(model.scale),
            np.concatenate([np.arange(width), np.argsort(ids)]),
            np.r_[0, np.cumsum(counts)], (k, width))
    for t in range(1, _J_MAX + 1):
        if isinstance(v, CSR) and v.nnz > _SPARSE_FILL * k * width:
            v = v.toarray(out=a)
        y = _step(model.at32, v, b)
        # a dense v sits in a, which the norms may now overwrite
        yield t, y, a
        if y is b:
            a, b = b, a
        v = y


def _no_contraction() -> NotContractingError:
    return NotContractingError(
        f"matrix not observed to contract within {_J_MAX} steps (no "
        "certified anchor bound below 1/2); map may not be mixing")


def _witness(model: _Model, bufs: Sequence[np.ndarray]):
    """(horizon, measured_from) from _WITNESS evenly spaced anchors stepped
    in bufs (as in _half_anchors).  measured_from is 1 in the sup norm, and
    in L1 the first step t at which their largest full-anchor norm is at
    most the cap R^t of powers: every earlier step fails both tests and is
    capped at R^t whatever the other anchors measure (class docstring).
    horizon is the first step at which the bound of their record passes
    N's test, with the a-priori norms before measured_from, as the blocks
    record them; NotContractingError if no step up to _J_MAX does.

    The horizon is at most N.  _Model.bounds is increasing in the norm
    record, entry by entry: fresh increases in the norm it charges, and
    each drift and bound is built from fresh errors and norms by sums,
    products with the fixed R or rho_m and upward roundings, which all
    increase.  The witness's anchors are among the blocks', with the same
    norms (module docstring), and both records hold the same a-priori
    norms before measured_from, so the witness's record and bounds are at
    most the joined ones at every step; N's test is a threshold on the
    bound, so the witness passes by N."""
    k = model.at.shape[0]
    ids = np.linspace(1, k - 1, _WITNESS).round().astype(np.intp)
    # ids increase, so dropping repeats needs no np.unique, whose first call
    # without return_inverse imports numpy.ma (about 12 ms and 1.2 MB)
    ids = ids[np.r_[True, ids[1:] != ids[:-1]]]
    measured_from = None if model.norm_kind == "L1" else 1
    norms = []
    caps = itertools.islice(model.powers(), 1, None)
    for (t, y, spare), cap in zip(_half_anchors(model, ids, bufs), caps):
        norms.append(2.0 * model.col_norms(y, spare).max())
        if measured_from is None and norms[-1] <= cap:
            measured_from = t
        if measured_from is not None:
            record = (model.a_priori_norms(measured_from - 1)
                      + norms[measured_from - 1:])
            if model.passes_n_true(model.bounds(record)[-1], t):
                return t, measured_from
    raise _no_contraction()


def _run_batch(model: _Model, ids: np.ndarray, horizon: int,
               measured_from: int, bufs: Sequence[np.ndarray]) -> np.ndarray:
    """Step the half-anchors of ids in bufs (_half_anchors) horizon times
    and return the largest full-anchor norm of each step.  Steps from
    measured_from on are measured (upward-rounded norms); the earlier ones
    take the a-priori norms, and their products are computed but not
    summed."""
    out = np.empty(horizon)
    out[:measured_from - 1] = model.a_priori_norms(measured_from - 1)
    for t, y, spare in itertools.islice(_half_anchors(model, ids, bufs), horizon):
        if t >= measured_from:
            out[t - 1] = 2.0 * model.col_norms(y, spare).max()
    return out


def _anchor_norms(model: _Model):
    """(norm_max, bounds, n_eps, n_true, measured_from) of the first round
    whose record passes N's test: each step's largest anchor norm and bound.
    _witness sets the horizon and measured_from; then every block of
    _block_columns(k) anchors steps once to the horizon (_run_batch) on the
    thread pool.  The horizon is at most N, so a failing round rules out
    every step it covered.  The next round steps one step further, and
    each retry after that doubles the horizon, up to _J_MAX: an anchor
    steps fewer than 4 _J_MAX times in all, the witness's steps included,
    before NotContractingError."""
    k = model.at.shape[0]
    ids_all = np.arange(1, k)
    width = _block_columns(k)
    starts = range(0, len(ids_all), width)
    workers = min(_usable_cpus(), len(starts))
    # room for the witness's anchors as well as a block's
    pairs = [[np.empty(k * max(width, _WITNESS), np.float32) for _ in range(2)]
             for _ in range(workers)]
    horizon, measured_from = _witness(model, pairs[0])
    idle = queue.SimpleQueue()  # buffer pairs not in use by a block
    for bufs in pairs:
        idle.put(bufs)

    def block(start):
        bufs = idle.get()
        try:
            return _run_batch(model, ids_all[start:start + width], horizon,
                              measured_from, bufs)
        finally:
            idle.put(bufs)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for retry in itertools.count():
            norm_max = np.max(list(pool.map(block, starts)), axis=0)
            bounds = model.bounds(norm_max)
            n_eps, n_true = _first_passing(bounds, model)
            if n_true is not None:
                return norm_max, bounds, n_eps, n_true, measured_from
            if horizon == _J_MAX:
                raise _no_contraction()
            horizon = min(_J_MAX, 2 * horizon if retry else horizon + 1)


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
        p = _csr.matvec(at, v)
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
    inflation is matrix.step_error.  eps_num is the largest radius
    accepted: power steps go on until the certified radius is at most
    eps_num, and stop near rounding level, where the radius is about 1e-14
    (L1) in practice.  Each anchor step's bounds are logged at INFO level,
    then the power steps and radius.

    Raises NotContractingError if _J_MAX anchor steps pass without the
    certified bound dropping below 1/2, or _J_MAX power steps without the
    radius dropping to eps_num; ValueError for an eps_num that is not
    positive and finite, an L1 matrix that is not exactly row-stochastic,
    or a sup-norm matrix with k > 2^24.
    """
    if not 0 < eps_num < math.inf:  # NaN fails the comparison too
        raise ValueError("eps_num must be positive and finite")
    model = _model(matrix)
    norm_max, bounds, n_eps, n_true, measured_from = _anchor_norms(model)
    for t, (top, bound) in enumerate(zip(norm_max, bounds), 1):
        measured = t >= measured_from
        _log.info("step %d: max_norm=%.6g bound=%.6g measured=%s", t, top,
                  bound, measured, extra={"step": t, "max_norm": float(top),
                                          "bound": bound, "measured": measured})
    cert = ContractionCertificate(
        n_eps=n_eps, n_true=n_true, per_step_bounds=[float(b) for b in bounds[:n_true]],
        row_defect=model.row_defect, norm_kind=model.norm_kind,
        measured_from=measured_from)
    return cert, _fixed_vector(model, cert.per_step_bounds[:n_eps], eps_num)
