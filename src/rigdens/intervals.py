"""Outward-rounded interval arithmetic on binary64.

Every operation returns an interval that is guaranteed to contain the exact
mathematical result whenever the operand intervals contain the operands
(containment is the only invariant that matters; tightness is best-effort).

Rounding strategy: CPython's float arithmetic is IEEE-754 round-to-nearest,
so a computed endpoint is at most one representable step away from the exact
value.  Endpoints are nudged outward with ``math.nextafter`` except where an
error-free transformation (TwoSum / Dekker's TwoProd) proves the float result
exact, in which case no widening happens at all.  This keeps exact dyadic
arithmetic exact (e.g. [1,1]+[2,2] == [3,3]).

``IntervalArray`` runs the same rules on whole float64 arrays of lower
and upper ends: every element of an array result equals the scalar
``Interval`` operation on that element.  Transcendental ends come from the
same ``math`` libm calls plus the same ``_LIBM_SLACK`` ulps, and ``sin``/
``cos`` reduce with the same ``PI`` enclosure, so the array layer adds no
accuracy assumption (a round-to-nearest result is within half an ulp of
the exact one; Rump, Acta Numerica 2010).  ``Branch.value_iv`` and
``polys.poly_eval_iv`` take either kind unchanged, so a formula is written
once; the per-node and per-cell loops of the pipeline use the arrays.

All values are immutable; operations are pure functions, safe under any
number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

__all__ = [
    "Interval",
    "IntervalArray",
    "EPS_MACH",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "iv",
    "from_fraction",
    "ratio_array",
    "exact_int_dtype",
]

# Unit roundoff ledger constant: 2^-52, the spacing of doubles in [1, 2).
EPS_MACH = 2.0 ** -52

_INF = math.inf

# Dekker splitting constant for binary64: 2^27 + 1.
_SPLITTER = 134217729.0

# Magnitude guards outside which TwoProd is not error-free: the splitting
# can overflow above _PROD_HI, and below _PROD_MIN the product's low bits
# (down to 2^-104 of its exponent) fall under the subnormal spacing 2^-1074,
# so the error term is itself rounded.
_PROD_HI = 1e153
_PROD_MIN = 2.0 ** -968


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _two_sum(a, b):
    """Knuth's TwoSum: returns (s, e) with s = fl(a+b) and a+b = s+e exactly;
    elementwise on arrays."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _sum_lo(a: float, b: float) -> float:
    """Largest float known to be <= a+b."""
    s, e = _two_sum(a, b)
    if not math.isfinite(s):
        # Overflow to +inf implies the exact sum exceeds the largest finite
        # double (round-to-nearest overflows only past the halfway point).
        return math.nextafter(_INF, 0.0) if s > 0 else -_INF
    return _down(s) if e < 0 else s


def _sum_hi(a: float, b: float) -> float:
    """Smallest float known to be >= a+b."""
    s, e = _two_sum(a, b)
    if not math.isfinite(s):
        return _INF if s > 0 else -math.nextafter(_INF, 0.0)
    return _up(s) if e > 0 else s


def _two_prod(a, b):
    """Dekker's TwoProd: (p, e) with p = fl(a*b), a*b = p+e exactly;
    elementwise on arrays.

    Only valid away from overflow/underflow; callers guard magnitudes.
    """
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _prod_safe(a: float, b: float) -> bool:
    aa, ab = abs(a), abs(b)
    if aa == 0.0 or ab == 0.0:
        return True
    return aa < _PROD_HI and ab < _PROD_HI and aa * ab >= _PROD_MIN


def _prod_lo(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        return -_INF if p < 0 else math.nextafter(_INF, 0.0)
    if _prod_safe(a, b):
        _, e = _two_prod(a, b)
        return _down(p) if e < 0 else p
    return _down(p)


def _prod_hi(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        return _INF if p > 0 else -math.nextafter(_INF, 0.0)
    if _prod_safe(a, b):
        _, e = _two_prod(a, b)
        return _up(p) if e > 0 else p
    return _up(p)


def _div_bounds(a: float, b: float):
    """Rigorous (lo, hi) bracket of the real quotient a/b, b != 0."""
    q = a / b
    if not math.isfinite(q):
        return (-_INF, _INF)
    # Residual a - q*b decides the rounding direction; q*b is within a few
    # ulps of a, so Sterbenz makes (a - p) exact and the residual sign true.
    if _prod_safe(q, b):
        p, e = _two_prod(q, b)
        if math.isfinite(p):
            r = (a - p) - e
            if r == 0.0:
                return (q, q)
            exact_above = (r > 0) == (b > 0)  # true quotient above q
            return (q, _up(q)) if exact_above else (_down(q), q)
    return (_down(q), _up(q))


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of machine doubles with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("NaN endpoint in interval")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def hull(*vals: "Interval") -> "Interval":
        return Interval(min(v.lo for v in vals), max(v.hi for v in vals))

    # -- predicates / accessors ---------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        if isinstance(x, Rational):
            return Fraction(self.lo) <= x <= Fraction(self.hi)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        if isinstance(other, IntervalArray):
            return NotImplemented
        other = _coerce(other)
        return Interval(_sum_lo(self.lo, other.lo), _sum_hi(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if isinstance(other, IntervalArray):
            return NotImplemented
        other = _coerce(other)
        return Interval(_sum_lo(self.lo, -other.hi), _sum_hi(self.hi, -other.lo))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other) -> "Interval":
        if isinstance(other, IntervalArray):
            return NotImplemented
        other = _coerce(other)
        pairs = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        return Interval(
            min(_prod_lo(a, b) for a, b in pairs),
            max(_prod_hi(a, b) for a, b in pairs),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if isinstance(other, IntervalArray):
            return NotImplemented
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        bounds = [
            _div_bounds(self.lo, other.lo),
            _div_bounds(self.lo, other.hi),
            _div_bounds(self.hi, other.lo),
            _div_bounds(self.hi, other.hi),
        ]
        return Interval(min(b[0] for b in bounds), max(b[1] for b in bounds))

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other) / self

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def sqr(self) -> "Interval":
        a = abs(self)
        return Interval(_prod_lo(a.lo, a.lo), _prod_hi(a.hi, a.hi))

    # -- transcendental ------------------------------------------------

    def log(self) -> "Interval":
        """Natural log; requires lo > 0."""
        if self.lo <= 0.0:
            raise ValueError(f"log of interval touching 0: {self}")
        return Interval(_libm_down(math.log, self.lo), _libm_up(math.log, self.hi))

    def sin(self) -> "Interval":
        return _iv_sin(self)

    def cos(self) -> "Interval":
        return _iv_cos(self)


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, float) or isinstance(x, int):
        xf = float(x)
        if isinstance(x, int) and xf != x:
            return from_fraction(Fraction(x))
        return Interval(xf, xf)
    if isinstance(x, Rational):
        return from_fraction(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Interval")


def iv(lo, hi=None) -> Interval:
    """Build an interval from scalars or rationals (containing conversion)."""
    if hi is None:
        return _coerce(lo)
    a, b = _coerce(lo), _coerce(hi)
    return Interval(a.lo, b.hi)


_MAX_FLOAT = math.nextafter(_INF, 0.0)


def from_fraction(q: Fraction) -> Interval:
    """Smallest machine interval containing the rational q; OverflowError
    beyond the largest double."""
    if abs(q) > _MAX_FLOAT:
        raise OverflowError("rational out of double range")
    f = float(q)
    fq = Fraction(f)
    if fq == q:
        return Interval(f, f)
    if fq > q:
        return Interval(_down(f), f)
    return Interval(f, _up(f))


# ---------------------------------------------------------------------------
# interval arrays
# ---------------------------------------------------------------------------


def _min(a, b):
    """Elementwise min keeping a on ties (signed zeros), like min(a, b)."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Elementwise max keeping a on ties, like max(a, b)."""
    return np.where(b > a, b, a)


def _v_down(x):
    return np.nextafter(x, -_INF)


def _v_up(x):
    return np.nextafter(x, _INF)


def _v_sum_lo(a, b):
    s, e = _two_sum(a, b)
    out = np.where(e < 0, _v_down(s), s)
    finite = np.isfinite(s)
    if not finite.all():
        out = np.where(finite, out, np.where(s > 0, _MAX_FLOAT, -_INF))
    return out


def _v_sum_hi(a, b):
    s, e = _two_sum(a, b)
    out = np.where(e > 0, _v_up(s), s)
    finite = np.isfinite(s)
    if not finite.all():
        out = np.where(finite, out, np.where(s > 0, _INF, -_MAX_FLOAT))
    return out


def _v_prod_safe(a, b):
    aa, ab = np.abs(a), np.abs(b)
    return (aa == 0.0) | (ab == 0.0) | (
        (aa < _PROD_HI) & (ab < _PROD_HI) & (aa * ab >= _PROD_MIN))


def _v_prod_bounds(a, b):
    """Elementwise (_prod_lo(a, b), _prod_hi(a, b))."""
    p, e = _two_prod(a, b)
    safe = _v_prod_safe(a, b)
    lo = np.where(safe & ~(e < 0), p, _v_down(p))
    hi = np.where(safe & ~(e > 0), p, _v_up(p))
    finite = np.isfinite(p)
    if not finite.all():
        lo = np.where(finite, lo, np.where(p < 0, -_INF, _MAX_FLOAT))
        hi = np.where(finite, hi, np.where(p > 0, _INF, -_MAX_FLOAT))
    return lo, hi


def _v_div_bounds(a, b):
    """Elementwise _div_bounds(a, b)."""
    q = a / b
    p, e = _two_prod(q, b)
    safe = _v_prod_safe(q, b) & np.isfinite(p)
    r = (a - p) - e
    exact = safe & (r == 0.0)
    above = (r > 0) == (b > 0)  # true quotient above q
    lo = np.where(exact | (safe & above), q, _v_down(q))
    hi = np.where(exact | (safe & ~above), q, _v_up(q))
    finite = np.isfinite(q)
    return np.where(finite, lo, -_INF), np.where(finite, hi, _INF)


def _v_libm(fn, x, toward):
    """fn at every element of x by the scalar layer's libm, then _LIBM_SLACK
    steps toward -inf or +inf."""
    y = np.fromiter(map(fn, x.ravel().tolist()), np.float64, count=x.size)
    y = y.reshape(x.shape)
    for _ in range(_LIBM_SLACK):
        y = np.nextafter(y, toward)
    return y


class IntervalArray:
    """Elementwise closed intervals: float64 arrays lo <= hi of one shape.

    Each operation applies the scalar layer's rounding rules to whole
    arrays (TwoSum/TwoProd exactness tests, one outward ``nextafter`` step
    otherwise, the same ``PI`` enclosure and libm slack), so every element
    of a result equals the scalar ``Interval`` operation on that element
    (a zero end may differ in sign).  Scalars (``Interval``, ints, floats, rationals) and
    float arrays combine with an interval array by broadcasting.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # an ndarray operand defers to the reflected op

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        lo, hi = np.broadcast_arrays(lo, hi)
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("NaN endpoint in interval array")
        if (lo > hi).any():
            raise ValueError("inverted interval in interval array")
        self.lo, self.hi = lo, hi

    @staticmethod
    def hull(a: "IntervalArray", b: "IntervalArray") -> "IntervalArray":
        a, b = _as_array(a), _as_array(b)
        return IntervalArray(_min(a.lo, b.lo), _max(a.hi, b.hi))

    @property
    def shape(self):
        return self.lo.shape

    def __getitem__(self, idx) -> "IntervalArray":
        return IntervalArray(self.lo[idx], self.hi[idx])

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def __repr__(self):
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    @np.errstate(over="ignore", invalid="ignore")
    def __add__(self, other) -> "IntervalArray":
        other = _as_array(other)
        return IntervalArray(_v_sum_lo(self.lo, other.lo),
                             _v_sum_hi(self.hi, other.hi))

    __radd__ = __add__

    @np.errstate(over="ignore", invalid="ignore")
    def __sub__(self, other) -> "IntervalArray":
        other = _as_array(other)
        return IntervalArray(_v_sum_lo(self.lo, -other.hi),
                             _v_sum_hi(self.hi, -other.lo))

    def __rsub__(self, other) -> "IntervalArray":
        return _as_array(other) - self

    @np.errstate(over="ignore", invalid="ignore")
    def __mul__(self, other) -> "IntervalArray":
        return _mul(self, _as_array(other))

    @np.errstate(over="ignore", invalid="ignore")
    def __rmul__(self, other) -> "IntervalArray":
        # keep the scalar operand first, so ties resolve as in Interval
        return _mul(_as_array(other), self)

    @np.errstate(over="ignore", invalid="ignore")
    def __truediv__(self, other) -> "IntervalArray":
        other = _as_array(other)
        if other.contains_zero().any():
            raise ZeroDivisionError("division by interval containing 0")
        lo = hi = None
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                q_lo, q_hi = _v_div_bounds(a, b)
                lo = q_lo if lo is None else _min(lo, q_lo)
                hi = q_hi if hi is None else _max(hi, q_hi)
        return IntervalArray(lo, hi)

    def __rtruediv__(self, other) -> "IntervalArray":
        return _as_array(other) / self

    def __abs__(self) -> "IntervalArray":
        lo, hi = self.lo, self.hi
        pos, neg = lo >= 0.0, hi <= 0.0
        return IntervalArray(
            np.where(pos, lo, np.where(neg, -hi, 0.0)),
            np.where(pos, hi, np.where(neg, -lo, _max(-lo, hi))),
        )

    # -- transcendental ------------------------------------------------

    def log(self) -> "IntervalArray":
        """Natural log; requires lo > 0 everywhere."""
        if (self.lo <= 0.0).any():
            raise ValueError("log of interval touching 0")
        return IntervalArray(_v_libm(math.log, self.lo, -_INF),
                             _v_libm(math.log, self.hi, _INF))

    def sin(self) -> "IntervalArray":
        """Elementwise ``_iv_sin``: endpoint values, widened to +-1 where a
        quadrant boundary b*pi/2 with b = 1 (peak) or 3 (trough) mod 4
        lies in the argument."""
        lo, hi = self.lo, self.hi
        finite = np.isfinite(lo) & np.isfinite(hi)
        lo, hi = np.where(finite, lo, 0.0), np.where(finite, hi, 0.0)
        n_lo = np.floor((IntervalArray(lo) / HALF_PI).lo)
        n_hi = np.floor((IntervalArray(hi) / HALF_PI).hi)
        out_lo = _min(_v_libm(math.sin, lo, -_INF), _v_libm(math.sin, hi, -_INF))
        out_hi = _max(_v_libm(math.sin, lo, _INF), _v_libm(math.sin, hi, _INF))

        def boundaries(m):  # count of b = m mod 4 with n_lo < b <= n_hi
            return np.floor((n_hi - m) / 4) > np.floor((n_lo - m) / 4)

        out_hi = np.where(boundaries(1), 1.0, out_hi)
        out_lo = np.where(boundaries(3), -1.0, out_lo)
        full = ~finite | (self.hi - self.lo >= TWO_PI.lo) | (n_hi - n_lo > 5)
        return IntervalArray(np.where(full, -1.0, _max(out_lo, -1.0)),
                             np.where(full, 1.0, _min(out_hi, 1.0)))

    def cos(self) -> "IntervalArray":
        return (self + HALF_PI).sin()


def _mul(x: IntervalArray, y: IntervalArray) -> IntervalArray:
    if (x.lo >= 0.0).all() and (y.lo >= 0.0).all():
        # the corner products are monotone: the extreme ones are the ends
        return IntervalArray(_v_prod_bounds(x.lo, y.lo)[0],
                             _v_prod_bounds(x.hi, y.hi)[1])
    lo = hi = None
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            p_lo, p_hi = _v_prod_bounds(a, b)
            lo = p_lo if lo is None else _min(lo, p_lo)
            hi = p_hi if hi is None else _max(hi, p_hi)
    return IntervalArray(lo, hi)


def _as_array(x) -> IntervalArray:
    if isinstance(x, IntervalArray):
        return x
    if isinstance(x, np.ndarray):
        f = x.astype(np.float64)
        if not np.issubdtype(x.dtype, np.floating) and (f != x).any():
            raise ValueError("integer array not exactly representable")
        return IntervalArray(f)
    x = _coerce(x)
    return IntervalArray(x.lo, x.hi)


def exact_int_dtype(top: int):
    """Array dtype of integers over a common denominator, given the largest
    magnitude top of them and of every integer formed from them: int64
    when top < 2^53, so each is an exact double too, and object (Python
    ints) otherwise."""
    return np.dtype(np.int64) if top < 2 ** 53 else np.dtype(object)


def ratio_array(nums, den: int) -> IntervalArray:
    """Smallest machine intervals holding the rationals nums / den, for an
    integer array nums (int64 or Python ints) and an integer den > 0."""
    nums = np.asarray(nums)
    top = int(np.abs(nums).max()) if nums.size else 0
    nums = nums.astype(exact_int_dtype(max(den, top)))
    if nums.dtype != object:
        # both exact doubles: a correctly rounded quotient and the sign of
        # its residual
        lo, hi = _v_div_bounds(nums.astype(np.float64), np.float64(den))
        return IntervalArray(lo, hi)
    encs = [from_fraction(Fraction(int(n), den)) for n in nums.tolist()]
    return IntervalArray(np.array([e.lo for e in encs], dtype=np.float64),
                         np.array([e.hi for e in encs], dtype=np.float64))


# libm endpoint evaluations are faithful but not proven correctly rounded;
# two ulps of slack absorbs any admissible libm error.
_LIBM_SLACK = 2


def _libm_down(fn, x: float) -> float:
    y = fn(x)
    for _ in range(_LIBM_SLACK):
        y = _down(y)
    return y


def _libm_up(fn, x: float) -> float:
    y = fn(x)
    for _ in range(_LIBM_SLACK):
        y = _up(y)
    return y


# pi enclosure: math.pi lies strictly below the true pi (the next double up
# is strictly above), so [pi_f, nextafter(pi_f)] is a correct bracket.
PI = Interval(math.pi, _up(math.pi))
TWO_PI = PI + PI
HALF_PI = PI / iv(2)


def _iv_sin(x: Interval) -> Interval:
    """Rigorous sine via quadrant analysis with the PI enclosure.

    Argument reduction uses interval arithmetic throughout, so enormous
    arguments simply degrade to [-1, 1] rather than losing containment.
    """
    if x.width >= TWO_PI.lo:
        return Interval(-1.0, 1.0)
    # Outer quadrant indices: conservative floor of the lower end, ceiling
    # choice of the upper end, so boundary ambiguity only widens the result.
    q_lo = iv(x.lo) / HALF_PI
    q_hi = iv(x.hi) / HALF_PI
    n_lo = math.floor(q_lo.lo)
    n_hi = math.floor(q_hi.hi)
    if n_hi - n_lo > 5:
        return Interval(-1.0, 1.0)
    s_lo = Interval(_libm_down(math.sin, x.lo), _libm_up(math.sin, x.lo))
    s_hi = Interval(_libm_down(math.sin, x.hi), _libm_up(math.sin, x.hi))
    out = Interval.hull(s_lo, s_hi)
    # Quadrant boundary b*pi/2 may lie inside x for b in (n_lo, n_hi];
    # b = 1 mod 4 is a peak of sin, b = 3 mod 4 a trough.
    for b in range(n_lo + 1, n_hi + 1):
        m = b % 4
        if m == 1:
            out = Interval(out.lo, 1.0)
        elif m == 3:
            out = Interval(-1.0, out.hi)
    return out.intersect(Interval(-1.0, 1.0))


def _iv_cos(x: Interval) -> Interval:
    return _iv_sin(x + HALF_PI)

