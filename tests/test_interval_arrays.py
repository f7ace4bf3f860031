"""Containment of the interval-array layer, and agreement with the scalar
layer it mirrors element by element."""

import math
import random
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigdens.intervals import Interval, IntervalArray, from_fraction, iv
from rigdens.polys import poly_eval

TRIALS = 100_000


def _random_intervals(rng, n, lo_exp=-6, hi_exp=6):
    mag = 10.0 ** rng.uniform(lo_exp, hi_exp, size=n)
    a = np.sort(rng.uniform(-mag, mag, size=(2, n)), axis=0)
    return IntervalArray(a[0], a[1])


def _points(rng, x: IntervalArray) -> np.ndarray:
    return np.clip(rng.uniform(x.lo, x.hi), x.lo, x.hi)


def _contains(r: IntervalArray, exact) -> np.ndarray:
    """Exact containment; an infinite end (overflow) holds everything."""
    return np.array([(lo == -math.inf or F(lo) <= e) and (hi == math.inf or e <= F(hi))
                     for lo, hi, e in zip(r.lo.tolist(), r.hi.tolist(), exact)])


def _contains_mp(r: IntervalArray, exact) -> np.ndarray:
    return np.array([mpmath.mpf(lo) <= e <= mpmath.mpf(hi)
                     for lo, hi, e in zip(r.lo.tolist(), r.hi.tolist(), exact)])


def test_arithmetic_containment_1e5_trials():
    """Criterion 8a's trial on arrays: a random operation per trial, the
    exact rational result of points drawn inside the operands."""
    rng = np.random.default_rng(818)
    x, y = _random_intervals(rng, TRIALS), _random_intervals(rng, TRIALS)
    px, py = _points(rng, x), _points(rng, y)
    op = rng.integers(0, 5, size=TRIALS)
    op[(op == 3) & y.contains_zero()] = 4  # no division by intervals holding 0
    violations = 0
    for code, fn, exact in (
        (0, lambda a, b: a + b, lambda a, b: a + b),
        (1, lambda a, b: a - b, lambda a, b: a - b),
        (2, lambda a, b: a * b, lambda a, b: a * b),
        (3, lambda a, b: a / b, lambda a, b: a / b),
        (4, lambda a, b: abs(a), lambda a, b: abs(a)),
    ):
        sel = op == code
        r = fn(x[sel], y[sel])
        ex = [exact(F(a), F(b)) for a, b in zip(px[sel].tolist(), py[sel].tolist())]
        violations += int((~_contains(r, ex)).sum())
    assert violations == 0


def test_transcendental_and_horner_containment_vs_mpmath():
    """log, sin, cos and Horner against 50-digit mpmath, 1e5 trials in all."""
    rng = np.random.default_rng(50)
    n = TRIALS // 4
    violations = 0
    with mpmath.workdps(50):
        x = _random_intervals(rng, n, -6, 2)
        x = IntervalArray(np.abs(x.lo) + 1e-300, np.abs(x.lo) + x.width + 1e-300)
        px = _points(rng, x)
        violations += int((~_contains_mp(
            x.log(), [mpmath.log(mpmath.mpf(p)) for p in px.tolist()])).sum())
        for name in ("sin", "cos"):
            x = _random_intervals(rng, n, -3, 2)
            px = _points(rng, x)
            fn = getattr(mpmath, name)
            violations += int((~_contains_mp(
                getattr(x, name)(), [fn(mpmath.mpf(p)) for p in px.tolist()])).sum())
        coeffs = [F(int(c), 7) for c in rng.integers(-50, 50, size=5)]
        x = _random_intervals(rng, n, -2, 1)
        px = _points(rng, x)
        r = poly_eval([from_fraction(c) for c in coeffs], x)
        mp_coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
        violations += int((~_contains_mp(
            r, [mpmath.polyval(mp_coeffs[::-1], mpmath.mpf(p))
                for p in px.tolist()])).sum())
    assert violations == 0


_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


def _interval_pair(draw):
    a, b = sorted((draw(_floats), draw(_floats)))
    return a, b


@st.composite
def _operands(draw):
    """Two interval lists and points inside them."""
    n = draw(st.integers(1, 8))
    xs = [_interval_pair(draw) for _ in range(n)]
    ys = [_interval_pair(draw) for _ in range(n)]
    fx = [draw(st.floats(0, 1)) for _ in range(n)]
    fy = [draw(st.floats(0, 1)) for _ in range(n)]
    px = [min(max(a + t * (b - a), a), b) for (a, b), t in zip(xs, fx)]
    py = [min(max(a + t * (b - a), a), b) for (a, b), t in zip(ys, fy)]
    return xs, ys, px, py


def _array(pairs):
    return IntervalArray([p[0] for p in pairs], [p[1] for p in pairs])


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_arithmetic_contains_exact_result(ops):
    xs, ys, px, py = ops
    x, y = _array(xs), _array(ys)
    cases = [(x + y, [F(a) + F(b) for a, b in zip(px, py)]),
             (x - y, [F(a) - F(b) for a, b in zip(px, py)]),
             (x * y, [F(a) * F(b) for a, b in zip(px, py)]),
             (abs(x), [abs(F(a)) for a in px])]
    if not y.contains_zero().any():
        cases.append((x / y, [F(a) / F(b) for a, b in zip(px, py)]))
    for r, exact in cases:
        assert _contains(r, exact).all()


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_transcendentals_contain_mpmath(ops):
    xs, _, px, _ = ops
    x = _array(xs)
    with mpmath.workdps(50):
        for name in ("sin", "cos"):
            fn = getattr(mpmath, name)
            assert _contains_mp(getattr(x, name)(),
                                [fn(mpmath.mpf(p)) for p in px]).all()
        pos = x.lo > 0
        if pos.any():
            logs = [mpmath.log(mpmath.mpf(p)) for p, ok in zip(px, pos) if ok]
            assert _contains_mp(x[pos].log(), logs).all()


def test_elements_equal_scalar_operations():
    """Every element of an array result is the scalar layer's result."""
    rng = random.Random(7)
    xs = [Interval(*sorted((rng.uniform(-30, 30), rng.uniform(-30, 30))))
          for _ in range(2000)]
    ys = [Interval(*sorted((rng.uniform(0.5, 9), rng.uniform(0.5, 9))))
          for _ in range(2000)]
    x = IntervalArray([v.lo for v in xs], [v.hi for v in xs])
    y = IntervalArray([v.lo for v in ys], [v.hi for v in ys])
    cases = [
        (x + y, [a + b for a, b in zip(xs, ys)]),
        (x - y, [a - b for a, b in zip(xs, ys)]),
        (x * y, [a * b for a, b in zip(xs, ys)]),
        (x / y, [a / b for a, b in zip(xs, ys)]),
        (iv(3) * x, [iv(3) * a for a in xs]),
        (1 / y, [iv(1) / b for b in ys]),
        (abs(x), [abs(a) for a in xs]),
        (x.sin(), [a.sin() for a in xs]),
        (x.cos(), [a.cos() for a in xs]),
        (y.log(), [b.log() for b in ys]),
        (IntervalArray.hull(x, y), [Interval.hull(a, b) for a, b in zip(xs, ys)]),
    ]
    for r, ref in cases:
        assert r.lo.tolist() == [v.lo for v in ref]
        assert r.hi.tolist() == [v.hi for v in ref]


def test_exact_dyadic_arithmetic_stays_exact():
    r = IntervalArray([1.0, 0.5]) + IntervalArray([2.0, 0.25])
    assert r.lo.tolist() == r.hi.tolist() == [3.0, 0.75]
    r = IntervalArray([1.5]) * 4
    assert r.lo.tolist() == r.hi.tolist() == [6.0]


def test_scalar_operands_broadcast_and_defer():
    x = IntervalArray([1.0, 2.0])
    for r in (iv(1) + x, x + iv(1), 1 + x, x + 1, F(1) + x):
        assert isinstance(r, IntervalArray)
        assert r.lo.tolist() == [2.0, 3.0]
    third = iv(1) / IntervalArray([3.0])
    assert F(third.lo[0]) < F(1, 3) < F(third.hi[0])


def test_invalid_operations_raise():
    with pytest.raises(ZeroDivisionError):
        IntervalArray([1.0]) / IntervalArray([-1.0], [1.0])
    with pytest.raises(ValueError):
        IntervalArray([0.0], [1.0]).log()
    with pytest.raises(ValueError, match="inverted"):
        IntervalArray([2.0], [1.0])
    with pytest.raises(ValueError, match="NaN"):
        IntervalArray([math.nan])


def test_sin_widens_to_extrema_inside_the_argument():
    half_pi = math.pi / 2
    r = IntervalArray([half_pi - 1e-6, 3 * half_pi - 1e-3, 0.0],
                      [half_pi + 1e-6, 3 * half_pi + 1e-3, 7.0]).sin()
    assert r.hi[0] == 1.0 and r.lo[1] == -1.0
    assert (r.lo[2], r.hi[2]) == (-1.0, 1.0)


def test_sin_of_infinite_ends_matches_the_scalar_layer():
    """An infinite end gives [-1, 1] in both layers, without a warning
    (the scalar layer raised OverflowError on [inf, inf])."""
    inf = math.inf
    ends = [(inf, inf), (-inf, -inf), (-inf, 0.0), (0.0, inf), (-inf, inf)]
    x = IntervalArray([a for a, _ in ends], [b for _, b in ends])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, fn in ((x.sin(), Interval.sin), (x.cos(), Interval.cos)):
            assert r.lo.tolist() == [-1.0] * len(ends) == [fn(Interval(*e)).lo for e in ends]
            assert r.hi.tolist() == [1.0] * len(ends) == [fn(Interval(*e)).hi for e in ends]


def test_product_underflowing_to_subnormal_contains_exact():
    # hypothesis found this: a*b is subnormal, where TwoProd's error term
    # is itself rounded, so the ends must be widened rather than trusted
    a, b = 0.818690436186978, 1.1125369292536007e-308
    r = IntervalArray([a], [1.0]) * IntervalArray([b], [1.0])
    assert F(r.lo[0]) <= F(a) * F(b)
    q = IntervalArray([b]) / 3.0
    assert F(q.lo[0]) <= F(b) / 3 <= F(q.hi[0])
