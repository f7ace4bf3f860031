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

All values are immutable; operations are pure functions, safe under any
number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = [
    "Interval",
    "EPS_MACH",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "iv",
    "from_fraction",
]

# Unit roundoff ledger constant: 2^-52, the spacing of doubles in [1, 2).
EPS_MACH = 2.0 ** -52

_INF = math.inf

# Dekker splitting constant for binary64: 2^27 + 1.
_SPLITTER = 134217729.0

# Magnitude guards outside which TwoProd's splitting can overflow/denormalize.
_PROD_HI = 1e153
_PROD_LO = 1e-153


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _two_sum(a: float, b: float):
    """Knuth's TwoSum: returns (s, e) with s = fl(a+b) and a+b = s+e exactly."""
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


def _two_prod(a: float, b: float):
    """Dekker's TwoProd: (p, e) with p = fl(a*b), a*b = p+e exactly.

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
    return (aa < _PROD_HI and ab < _PROD_HI) and not (aa < _PROD_LO and ab < _PROD_LO)


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
        other = _coerce(other)
        return Interval(_sum_lo(self.lo, other.lo), _sum_hi(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        other = _coerce(other)
        return Interval(_sum_lo(self.lo, -other.hi), _sum_hi(self.hi, -other.lo))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other) -> "Interval":
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

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

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


def from_fraction(q: Fraction) -> Interval:
    """Smallest machine interval containing the rational q."""
    f = float(q)
    if math.isinf(f):
        raise OverflowError("rational out of double range")
    fq = Fraction(f)
    if fq == q:
        return Interval(f, f)
    if fq > q:
        return Interval(_down(f), f)
    return Interval(f, _up(f))


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
