"""Outward-rounded interval arithmetic on binary64.

Every operation returns an interval that is guaranteed to contain the exact
mathematical result whenever the operand intervals contain the operands
(containment is the only invariant that matters; tightness is best-effort).

Rounding strategy: CPython's float arithmetic is IEEE-754 round-to-nearest,
so a computed endpoint is at most one representable step away from the exact
value.  Each end is computed from the one operation that sets it -- the
sign table picks the corner product or quotient of each end of ``*``, ``/``
and ``sqr``, so only operands that both straddle 0 compare two products --
and is stepped outward once only where an error-free transformation
(TwoSum / Dekker's TwoProd, or the residual of a quotient) shows that the
float result missed to that side, or cannot show that it did not (near
underflow and overflow).  This keeps exact dyadic arithmetic exact (e.g.
[1,1]+[2,2] == [3,3]).  A corner 0 * inf counts as 0.

``IntervalArray`` runs the same rules on whole float64 arrays of lower
and upper ends, stepping only the elements the TwoSum/TwoProd test marks,
one step of the bit pattern each: every element of an array result equals
the scalar ``Interval`` operation on that element, except that a product
of two arrays that both hold negative elements takes the hull of all four
corners, which near underflow can be wider.  Transcendental ends come
from the same ``math`` libm calls, once per end, plus the same
``_LIBM_SLACK`` ulps, and ``sin``/``cos`` reduce with the same ``PI``
enclosure and decide peaks and troughs by one quadrant rule
(``_crosses``; cos is sin shifted by pi/2 in both layers), so the array
layer adds no accuracy assumption (a round-to-nearest result is within
half an ulp of the exact one; Rump, Acta Numerica 2010).  The branch
evaluator of ``maps`` and ``polys.poly_eval`` take either kind
unchanged, so a formula is written once; the per-node and per-cell loops
of the pipeline use the arrays.

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
_U = 2.0 ** -53  # unit roundoff of binary64
_ETA = 2.0 ** -1074  # smallest subnormal: bounds the underflow of a product

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


def _split(a):
    """Dekker's splitting: (hi, lo) with a = hi + lo, each of at most 26
    significant bits; elementwise on arrays."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b, b_split=None):
    """Dekker's TwoProd: (p, e) with p = fl(a*b), a*b = p+e exactly;
    elementwise on arrays.  b_split is _split(b) where the caller holds it.

    Only valid away from overflow/underflow; callers guard magnitudes.
    """
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b) if b_split is None else b_split
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _prod_safe(a: float, b: float) -> bool:
    aa, ab = abs(a), abs(b)
    if aa == 0.0 or ab == 0.0:
        return True
    return aa < _PROD_HI and ab < _PROD_HI and aa * ab >= _PROD_MIN


def _prod_lo(a: float, b: float) -> float:
    """Largest float known to be <= a*b; 0 for 0 * inf."""
    p = a * b
    if not math.isfinite(p):
        return -_INF if p < 0 else _MAX_FLOAT if p > 0 else 0.0
    if _prod_safe(a, b):
        _, e = _two_prod(a, b)
        return _down(p) if e < 0 else p
    return _down(p)


def _prod_hi(a: float, b: float) -> float:
    """Smallest float known to be >= a*b; 0 for 0 * inf."""
    p = a * b
    if not math.isfinite(p):
        return _INF if p > 0 else -_MAX_FLOAT if p < 0 else 0.0
    if _prod_safe(a, b):
        _, e = _two_prod(a, b)
        return _up(p) if e > 0 else p
    return _up(p)


def _div_bounds(a: float, b: float):
    """Rigorous (lo, hi) bracket of the real quotient a/b, b != 0; the
    whole line when the float quotient is not finite."""
    q = a / b
    if not math.isfinite(q):
        return (-_INF, _INF)
    # Residual a - q*b decides the rounding direction; q*b is within a few
    # ulps of a, so Sterbenz makes (a - p) exact and the residual sign true.
    # A residual that is not finite proves nothing: TwoProd's splitting of
    # a b near the top of the range overflows even when q is 0.
    if _prod_safe(q, b):
        p, e = _two_prod(q, b)
        r = (a - p) - e
        if math.isfinite(r):
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
        if not self.lo <= self.hi:  # a NaN end fails this too
            if math.isnan(self.lo) or math.isnan(self.hi):
                raise ValueError("NaN endpoint in interval")
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
        # the sign table: the corner product that sets each end; only
        # when both operands straddle 0 are there two candidates per end
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0.0:
            return Interval(_prod_lo(a if c >= 0.0 else b, c),
                            _prod_hi(b if d >= 0.0 else a, d))
        if b <= 0.0:
            return Interval(_prod_lo(a if d >= 0.0 else b, d),
                            _prod_hi(b if c >= 0.0 else a, c))
        if c >= 0.0:
            return Interval(_prod_lo(a, d), _prod_hi(b, d))
        if d <= 0.0:
            return Interval(_prod_lo(b, c), _prod_hi(a, c))
        return Interval(min(_prod_lo(a, d), _prod_lo(b, c)),
                        max(_prod_hi(a, c), _prod_hi(b, d)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if isinstance(other, IntervalArray):
            return NotImplemented
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        # the sign table: the numerators of the lower and the upper end, each
        # over the divisor end that pushes it outward
        a, b = (self.lo, self.hi) if other.lo > 0.0 else (self.hi, self.lo)
        return Interval(_div_bounds(a, other.hi if a >= 0.0 else other.lo)[0],
                        _div_bounds(b, other.lo if b >= 0.0 else other.hi)[1])

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other) / self

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def sqr(self) -> "Interval":
        lo, hi = self.lo, self.hi
        if lo >= 0.0:
            near, far = lo, hi
        elif hi <= 0.0:
            near, far = -hi, -lo
        else:
            near, far = 0.0, max(-lo, hi)
        return Interval(_prod_lo(near, near), _prod_hi(far, far))

    # -- transcendental ------------------------------------------------

    def log(self) -> "Interval":
        """Natural log; requires lo > 0."""
        if self.lo <= 0.0:
            raise ValueError(f"log of interval touching 0: {self}")
        return Interval(_libm_down(math.log(self.lo)), _libm_up(math.log(self.hi)))

    def sin(self) -> "Interval":
        """Rigorous sine: the libm values at the ends, _LIBM_SLACK steps
        out, widened to 1 (-1) where a peak (trough) lies in the argument
        (``_crosses``).  The quadrant indices are the floors of a lower
        bound of lo / (pi/2) and of an upper bound of hi / (pi/2), so
        boundary ambiguity only widens the result; an argument at least
        2 pi wide, spanning more than five quadrants or with an infinite
        end gives [-1, 1]."""
        if not self.width < TWO_PI.lo:  # an infinite point has width NaN
            return Interval(-1.0, 1.0)
        n_lo = math.floor(_div_bounds(self.lo, HALF_PI.hi if self.lo >= 0.0 else HALF_PI.lo)[0])
        n_hi = math.floor(_div_bounds(self.hi, HALF_PI.lo if self.hi >= 0.0 else HALF_PI.hi)[1])
        if n_hi - n_lo > 5:
            return Interval(-1.0, 1.0)
        s_lo, s_hi = math.sin(self.lo), math.sin(self.hi)
        lo = -1.0 if _crosses(n_lo, n_hi, 3) else max(_libm_down(min(s_lo, s_hi)), -1.0)
        hi = 1.0 if _crosses(n_lo, n_hi, 1) else min(_libm_up(max(s_lo, s_hi)), 1.0)
        return Interval(lo, hi)

    def cos(self) -> "Interval":
        return (self + HALF_PI).sin()


def _crosses(n_lo, n_hi, m):
    """Whether a quadrant boundary b pi/2 with b = m mod 4 has
    n_lo < b <= n_hi, for integers or elementwise for float arrays of
    integers: m = 1 is a peak of sin, m = 3 a trough."""
    return (n_hi - m) // 4 > (n_lo - m) // 4


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


def _gamma(n: int, u: float) -> Interval:
    """gamma_n = n u / (1 - n u) enclosed, for u = 2^-53 or 2^-24 (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1); [inf, inf] once
    n u >= 1."""
    if n * u >= 1.0:
        return Interval(_INF, _INF)
    nu = iv(n) * iv(u)
    return nu / (iv(1) - nu)


# ---------------------------------------------------------------------------
# interval arrays
# ---------------------------------------------------------------------------


def _min(a, b):
    """Elementwise min keeping a on ties (signed zeros), like min(a, b)."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Elementwise max keeping a on ties, like max(a, b)."""
    return np.where(b > a, b, a)


def _v_up(x, where):
    """np.nextafter(x, inf) where ``where`` holds and x elsewhere, by one
    step of the bit pattern: read as int64, the bits of x >= +0 grow with
    x and those of x < 0 shrink as x grows, so the step adds 1 or -1 by
    the sign bit (and takes -0, like +0, to the least subnormal)."""
    where = where & (x < _INF)
    bits = x.view(np.int64)
    out = bits + ((bits >> 63) | 1) * where
    zero = where & (x == 0.0)
    if zero.any():
        out = np.where(zero, 1, out)
    return out.view(np.float64)


def _v_down(x, where):
    """np.nextafter(x, -inf) where ``where`` holds and x elsewhere."""
    return -_v_up(-x, where)


def _v_sum_lo(a, b):
    s, e = _two_sum(a, b)
    out = _v_down(s, e < 0)
    finite = np.isfinite(s)
    if not finite.all():
        out = np.where(finite, out, np.where(s > 0, _MAX_FLOAT, -_INF))
    return out


def _v_sum_hi(a, b):
    s, e = _two_sum(a, b)
    out = _v_up(s, e > 0)
    finite = np.isfinite(s)
    if not finite.all():
        out = np.where(finite, out, np.where(s > 0, _INF, -_MAX_FLOAT))
    return out


def _v_prod(a, b):
    """(p, e, unsafe) elementwise: p = fl(a*b), its TwoProd error e, and
    where e cannot be trusted (the negation of _prod_safe)."""
    p, e = _two_prod(a, b)
    aa, ab = np.abs(a), np.abs(b)
    unsafe = (aa != 0.0) & (ab != 0.0) & (
        (aa >= _PROD_HI) | (ab >= _PROD_HI) | (np.abs(p) < _PROD_MIN))
    return p, e, unsafe


def _v_prod_lo(p, e, unsafe):
    """Elementwise _prod_lo(a, b) from _v_prod(a, b)."""
    lo = _v_down(p, unsafe | (e < 0))
    finite = np.isfinite(p)
    if not finite.all():
        lo = np.where(finite, lo, np.where(p < 0, -_INF,
                                           np.where(p > 0, _MAX_FLOAT, 0.0)))
    return lo


def _v_prod_hi(p, e, unsafe):
    """Elementwise _prod_hi(a, b) from _v_prod(a, b)."""
    hi = _v_up(p, unsafe | (e > 0))
    finite = np.isfinite(p)
    if not finite.all():
        hi = np.where(finite, hi, np.where(p > 0, _INF,
                                           np.where(p < 0, -_MAX_FLOAT, 0.0)))
    return hi


@np.errstate(over="ignore", invalid="ignore")
def _v_scale_up(s, factor, factor_split):
    """_v_prod_hi(*_v_prod(s, factor)) bit for bit, for s >= 0 and factors
    > 0 (one, or one per element) whose _split the caller holds: the
    product, stepped up where TwoProd shows it missed or cannot show that
    it did not; a corner 0 * inf is 0."""
    p, e = _two_prod(s, factor, factor_split)
    step = (e > 0) | ((s != 0.0) & (
        (s >= _PROD_HI) | (factor >= _PROD_HI) | (p < _PROD_MIN)))
    # p >= 0, so one step up adds 1 to its bits (+0 goes to the least
    # subnormal); p = -0 only for s = -0, which never steps
    up = (p.view(np.int64) + (step & (p < _INF))).view(np.float64)
    finite = np.isfinite(p)
    if not finite.all():
        up = np.where(finite, up, np.where(p > 0, _INF, 0.0))
    return up


def _v_div_bounds(a, b):
    """Elementwise _div_bounds(a, b)."""
    q = a / b
    p, e, unsafe = _v_prod(q, b)
    r = (a - p) - e
    unsafe |= ~np.isfinite(r)
    exact, above = r == 0.0, (r > 0) == (b > 0)  # true quotient above q
    lo = _v_down(q, unsafe | ~(exact | above))
    hi = _v_up(q, unsafe | (~exact & above))
    finite = np.isfinite(q)
    if not finite.all():
        lo, hi = np.where(finite, lo, -_INF), np.where(finite, hi, _INF)
    return lo, hi


def _v_libm(fn, x):
    """fn at every element of x by the scalar layer's libm."""
    y = np.fromiter(map(fn, x.ravel().tolist()), np.float64, count=x.size)
    return y.reshape(x.shape)


def _v_slack(y, toward):
    """_LIBM_SLACK steps of every element of y toward -inf or +inf."""
    for _ in range(_LIBM_SLACK):
        y = np.nextafter(y, toward)
    return y


class IntervalArray:
    """Elementwise closed intervals: float64 arrays lo <= hi of one shape.

    Each operation applies the scalar layer's rounding rules to whole
    arrays (the sign table, TwoSum/TwoProd exactness tests and one outward
    step where they fail, the same ``PI`` enclosure and libm slack), so
    every element of a result equals the scalar ``Interval`` operation on
    that element (a zero end may differ in sign; the module docstring has
    the one other exception).  Scalars (``Interval``, ints, floats,
    rationals) and float arrays combine with an interval array by
    broadcasting.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # an ndarray operand defers to the reflected op

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape:
            lo, hi = np.broadcast_arrays(lo, hi)
        if not (lo <= hi).all():  # a NaN end fails this too
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("NaN endpoint in interval array")
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
        # Interval.__truediv__'s sign table, element by element
        pos = other.lo > 0.0
        a = np.where(pos, self.lo, self.hi)
        b = np.where(pos, self.hi, self.lo)
        return IntervalArray(
            _v_div_bounds(a, np.where(a >= 0.0, other.hi, other.lo))[0],
            _v_div_bounds(b, np.where(b >= 0.0, other.lo, other.hi))[1])

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
        return IntervalArray(_v_slack(_v_libm(math.log, self.lo), -_INF),
                             _v_slack(_v_libm(math.log, self.hi), _INF))

    def sin(self) -> "IntervalArray":
        """Elementwise ``Interval.sin``, by the same quadrant rule."""
        lo, hi = self.lo, self.hi
        finite = np.isfinite(lo) & np.isfinite(hi)
        lo, hi = np.where(finite, lo, 0.0), np.where(finite, hi, 0.0)
        h_lo, h_hi = HALF_PI.lo, HALF_PI.hi
        n_lo = np.floor(_v_div_bounds(lo, np.where(lo >= 0.0, h_hi, h_lo))[0])
        n_hi = np.floor(_v_div_bounds(hi, np.where(hi >= 0.0, h_lo, h_hi))[1])
        s_lo, s_hi = _v_libm(math.sin, lo), _v_libm(math.sin, hi)
        out_lo = np.where(_crosses(n_lo, n_hi, 3), -1.0,
                          _v_slack(_min(s_lo, s_hi), -_INF))
        out_hi = np.where(_crosses(n_lo, n_hi, 1), 1.0,
                          _v_slack(_max(s_lo, s_hi), _INF))
        full = ~finite | (hi - lo >= TWO_PI.lo) | (n_hi - n_lo > 5)
        return IntervalArray(np.where(full, -1.0, _max(out_lo, -1.0)),
                             np.where(full, 1.0, _min(out_hi, 1.0)))

    def cos(self) -> "IntervalArray":
        return (self + HALF_PI).sin()


def _mul(x: IntervalArray, y: IntervalArray) -> IntervalArray:
    if (x.lo >= 0.0).all():
        x, y = y, x
    elif not (y.lo >= 0.0).all():
        lo = hi = None
        for a in (x.lo, x.hi):
            for b in (y.lo, y.hi):
                p = _v_prod(a, b)
                p_lo, p_hi = _v_prod_lo(*p), _v_prod_hi(*p)
                lo = p_lo if lo is None else _min(lo, p_lo)
                hi = p_hi if hi is None else _max(hi, p_hi)
        return IntervalArray(lo, hi)
    # y >= 0: Interval.__mul__'s sign table gives each end one corner, the
    # end of x times the end of y that pushes it outward
    return IntervalArray(
        _v_prod_lo(*_v_prod(x.lo, np.where(x.lo >= 0.0, y.lo, y.hi))),
        _v_prod_hi(*_v_prod(x.hi, np.where(x.hi >= 0.0, y.hi, y.lo))))


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


def _fsum(x: IntervalArray) -> Interval:
    """Sum of x: fsum of each end, correctly rounded, moved one float out."""
    return Interval(_down(math.fsum(x.lo.tolist())),
                    _up(math.fsum(x.hi.tolist())))


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


def _libm_down(y: float) -> float:
    """A libm result y, _LIBM_SLACK steps toward -inf."""
    for _ in range(_LIBM_SLACK):
        y = _down(y)
    return y


def _libm_up(y: float) -> float:
    for _ in range(_LIBM_SLACK):
        y = _up(y)
    return y


# pi enclosure: math.pi lies strictly below the true pi (the next double up
# is strictly above), so [pi_f, nextafter(pi_f)] is a correct bracket.
PI = Interval(math.pi, _up(math.pi))
TWO_PI = PI + PI
HALF_PI = PI / iv(2)
