"""The interval kernels against the formulas they replace: the masked bit
step against ``np.nextafter``, and the sign-table scalar ``*``, ``/`` and
``sqr`` against the four-corner formulas, kept here as the reference."""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigdens.intervals import (Interval, _split, _two_prod, _v_down, _v_prod,
                              _v_prod_hi, _v_scale_up, _v_up)

_MAX = sys.float_info.max
_TINY = 5e-324
_SPECIALS = [0.0, -0.0, _TINY, -_TINY, 2.0 ** -1022, -2.0 ** -1022, 1.0, -1.0,
             0.5, 2.0, -4.0, 2.0 ** 52, 2.0 ** -968, 1e153, -1e153, 1 / 3,
             -0.7, 1e300, _MAX, -_MAX, math.inf, -math.inf]


# -- the masked bit step ------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_masked_step_matches_nextafter(seed):
    rng = np.random.default_rng(seed)
    powers = [s * 2.0 ** e for e in (-1074, -1073, -1023, -1022, -1, 0, 1, 1023)
              for s in (1.0, -1.0)]
    x = np.array(_SPECIALS + powers + list(rng.standard_normal(16)))
    for mask in (rng.random(x.size) < 0.5, np.ones(x.size, bool),
                 np.zeros(x.size, bool), ~(rng.random(x.size) < 0.5)):
        for step, toward in ((_v_up, math.inf), (_v_down, -math.inf)):
            ref = np.where(mask, np.nextafter(x, toward), x)
            assert (_bits(step(x, mask)) == _bits(ref)).all(), (step, x[
                _bits(step(x, mask)) != _bits(ref)])


def test_masked_step_keeps_shape_and_input():
    x = np.array([[1.0, -0.0], [math.inf, 3.0]])
    kept = x.copy()
    out = _v_down(x, np.array([[True, True], [True, False]]))
    assert out.shape == x.shape and (_bits(x) == _bits(kept)).all()
    assert out.tolist() == [[math.nextafter(1.0, -math.inf), -_TINY],
                            [_MAX, 3.0]]


# -- the scaling kernel --------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_scale_up_matches_the_product_kernel(seed):
    # s >= 0 times factors > 0, split once: the bits of the general product
    # kernel on zeros, subnormals, values near and past its TwoProd guards
    # (1e153, 2^-968) and overflow, random magnitudes, and a 0 * inf corner
    rng = np.random.default_rng(seed)
    s = np.r_[0.0, -0.0, _TINY, 3 * _TINY, 2.0 ** -1022, 2.0 ** -968, 1e-160,
              1.0, 1 / 3, 2.0 ** 52, 1e153, np.nextafter(1e153, 0), 2e153,
              1e300, _MAX, math.inf,
              rng.random(64), rng.random(64) * 2.0 ** rng.integers(-1074, 1023, 64)]
    factors = [1.0, 1.0 + 2.0 ** -52, 1 + 3e-13, 1.5, 1e153, 1e200, math.inf,
               rng.random(s.size) + 1.0, 1.0 + rng.integers(0, 1 << 20, s.size) * 2.0 ** -52]
    with np.errstate(over="ignore", invalid="ignore"):
        for f in map(np.asarray, factors):
            ref = _v_prod_hi(*_v_prod(s, f))
            assert (_bits(_v_scale_up(s, f, _split(f))) == _bits(ref)).all()


# -- the four-corner reference formulas ----------------------------------------

_PROD_HI, _PROD_MIN = 1e153, 2.0 ** -968


def _safe(a, b):
    aa, ab = abs(a), abs(b)
    return aa == 0.0 or ab == 0.0 or (
        aa < _PROD_HI and ab < _PROD_HI and aa * ab >= _PROD_MIN)


def _ref_prod_lo(a, b):
    p = a * b
    if math.isnan(p):  # a corner 0 * inf counts as 0
        return 0.0
    if not math.isfinite(p):
        return -math.inf if p < 0 else _MAX
    if _safe(a, b):
        _, e = _two_prod(a, b)
        return math.nextafter(p, -math.inf) if e < 0 else p
    return math.nextafter(p, -math.inf)


def _ref_prod_hi(a, b):
    p = a * b
    if math.isnan(p):  # a corner 0 * inf counts as 0
        return 0.0
    if not math.isfinite(p):
        return math.inf if p > 0 else -_MAX
    if _safe(a, b):
        _, e = _two_prod(a, b)
        return math.nextafter(p, math.inf) if e > 0 else p
    return math.nextafter(p, math.inf)


def _ref_div(a, b):
    # a residual that is not finite (TwoProd's split of a b above about
    # 1.3e300 overflows) takes both steps: the four-corner formula read it
    # as "below" and lost 5e-324 / MAX > 0
    q = a / b
    if not math.isfinite(q):
        return -math.inf, math.inf
    if _safe(q, b):
        p, e = _two_prod(q, b)
        r = (a - p) - e
        if math.isfinite(r):
            if r == 0.0:
                return q, q
            if (r > 0) == (b > 0):
                return q, math.nextafter(q, math.inf)
            return math.nextafter(q, -math.inf), q
    return math.nextafter(q, -math.inf), math.nextafter(q, math.inf)


def _ref_mul(x, y):
    pairs = [(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return (min(_ref_prod_lo(a, b) for a, b in pairs),
            max(_ref_prod_hi(a, b) for a, b in pairs))


def _ref_truediv(x, y):
    bounds = [_ref_div(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return min(b[0] for b in bounds), max(b[1] for b in bounds)


def _ref_sqr(x):
    a = abs(x)
    return _ref_prod_lo(a.lo, a.lo), _ref_prod_hi(a.hi, a.hi)


def _run(fn):
    try:
        return fn()
    except (ValueError, ZeroDivisionError):
        return None


def _ends(r):
    return None if r is None else (r.lo, r.hi) if isinstance(r, Interval) else r


def _tame(x, y, op):
    """Every corner of the four-corner formula is finite and error-free
    (its bracket is the rounding of the exact value both ways)."""
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                return False
            if op == "mul":
                if not (math.isfinite(a * b) and _safe(a, b)):
                    return False
            else:
                q = a / b
                if not (math.isfinite(q) and _safe(q, b)):
                    return False
                p, e = _two_prod(q, b)
                if not math.isfinite((a - p) - e):
                    return False
    return True


def _real(x):
    """False for [inf, inf] and [-inf, -inf], which hold no real number."""
    return not (math.isinf(x.lo) and x.lo == x.hi)


def _check(new, old, x, y, op):
    """Equal ends (0.0 == -0.0: only zero signs may differ) where every
    corner is tame; otherwise the new ends lie within the old ones, and
    hold the exact corner values of finite operands."""
    if _tame(x, y, op):
        assert new == old
        return
    if old is None:
        return
    assert new is not None
    if not (_real(x) and _real(y)):
        return
    assert old[0] <= new[0] and new[1] <= old[1]
    if all(map(math.isfinite, (x.lo, x.hi, y.lo, y.hi))):
        for a in (x.lo, x.hi):
            for b in (y.lo, y.hi):
                exact = F(a) * F(b) if op == "mul" else F(a) / F(b)
                assert (new[0] == -math.inf or F(new[0]) <= exact) and \
                    (new[1] == math.inf or exact <= F(new[1]))


# -- the sign table against the four corners ------------------------------------

_end = st.one_of(st.sampled_from(_SPECIALS),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(-4.0, 4.0))


@st.composite
def _signed(draw, kind):
    """An interval of one sign class: >= 0, <= 0, straddling 0, or any."""
    a, b = sorted((draw(_end), draw(_end)))
    if kind == "pos":
        a, b = sorted((abs(a), abs(b)))
    elif kind == "neg":
        a, b = sorted((-abs(a), -abs(b)))
    elif kind == "mixed":
        a, b = -abs(a) or -1.0, abs(b) or 1.0
    return Interval(a, b)


_KINDS = st.sampled_from(["pos", "neg", "mixed", "any"])


@st.composite
def _pair(draw):
    return draw(_signed(draw(_KINDS))), draw(_signed(draw(_KINDS)))


@settings(max_examples=1000, deadline=None)
@given(_pair())
@example((Interval(0.0, 0.0), Interval(1.0, math.inf)))
@example((Interval(-3.0, 2.0), Interval(-0.5, 7.0)))
@example((Interval(0.0, _TINY), Interval(_TINY, 1.0)))
@example((Interval(-math.inf, math.inf), Interval(0.0, 0.0)))
def test_sign_table_product_matches_four_corners(xy):
    x, y = xy
    _check(_ends(_run(lambda: x * y)), _ends(_run(lambda: _ref_mul(x, y))),
           x, y, "mul")


@settings(max_examples=1000, deadline=None)
@given(_pair())
@example((Interval(1.0, math.inf), Interval(1.0, 2.0)))
@example((Interval(-5.0, 3.0), Interval(-2.0, -0.25)))
@example((Interval(-_TINY, 0.0), Interval(1.0, math.inf)))
@example((Interval(-1.0, _TINY), Interval(_MAX, _MAX)))
def test_sign_table_quotient_matches_four_corners(xy):
    x, y = xy
    if y.contains_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    _check(_ends(_run(lambda: x / y)), _ends(_run(lambda: _ref_truediv(x, y))),
           x, y, "div")


@settings(max_examples=1000, deadline=None)
@given(_KINDS.flatmap(_signed))
def test_sign_table_square_matches_abs_square(x):
    assert _ends(x.sqr()) == _ref_sqr(x)


def test_every_sign_case_is_drawn_exactly():
    """One pair per case of the nine, away from any rounding trouble."""
    cases = {"pos": Interval(0.5, 3.0), "neg": Interval(-3.0, -0.5),
             "mixed": Interval(-2.0, 3.0)}
    for x in cases.values():
        for y in cases.values():
            assert _ends(x * y) == _ref_mul(x, y)
            if not y.contains_zero():
                assert _ends(x / y) == _ref_truediv(x, y)
        assert _ends(x.sqr()) == _ref_sqr(x)
