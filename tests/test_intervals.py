"""Containment and tightness of the outward-rounded interval arithmetic."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from rigdens.intervals import EPS_MACH, PI, Interval, from_fraction, iv


def ulp(x: float) -> float:
    return math.nextafter(abs(x), math.inf) - abs(x)


def test_exact_integer_sum_stays_exact():
    r = iv(1) + iv(2)
    assert r.lo == r.hi == 3.0
    assert r.width <= 2 * EPS_MACH


def test_product_endpoint_analysis():
    r = iv(1, 2) * iv(-1, 1)
    assert r.lo == -2.0 and r.hi == 2.0


def test_division_encloses_one_third():
    r = iv(1) / iv(3)
    third = Fraction(1, 3)
    assert Fraction(r.lo) < third < Fraction(r.hi)
    assert 0 < r.width <= 3 * ulp(1 / 3)


def test_division_by_zero_interval_raises():
    with pytest.raises(ZeroDivisionError):
        iv(1) / iv(-1, 1)


def test_log_of_one():
    r = iv(1).log()
    assert r.lo <= 0.0 <= r.hi
    assert r.width <= 4 * EPS_MACH


def test_log_touching_zero_raises():
    with pytest.raises(ValueError):
        iv(0, 1).log()


def test_log_three_matches_high_precision():
    r = iv(3).log()
    ln3 = mpmath.mpf(mpmath.log(3))
    assert mpmath.mpf(r.lo) < ln3 < mpmath.mpf(r.hi)
    assert r.width < 1e-14


def test_sin_zero():
    r = iv(0).sin()
    assert r.lo <= 0.0 <= r.hi


def test_sin_peak_straddle():
    half_pi = math.pi / 2
    r = Interval(half_pi - 1e-6, half_pi + 1e-6).sin()
    assert r.hi == 1.0
    assert r.lo <= math.sin(half_pi - 1e-6)


def test_sin_trough_straddle():
    x = 3 * math.pi / 2
    r = Interval(x - 1e-3, x + 1e-3).sin()
    assert r.lo == -1.0


def test_pi_enclosure():
    with mpmath.workdps(40):
        assert mpmath.mpf(PI.lo) < mpmath.pi < mpmath.mpf(PI.hi)


def test_from_fraction_contains():
    rng = random.Random(7)
    for _ in range(500):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        r = from_fraction(q)
        assert Fraction(r.lo) <= q <= Fraction(r.hi)
        assert r.width <= 2 * ulp(float(q) or 1e-300)


def test_from_fraction_range():
    # the largest double is its own interval; anything beyond it, however
    # far, raises the function's own OverflowError
    top = Fraction(sys.float_info.max)
    assert from_fraction(-top) == Interval(-sys.float_info.max, -sys.float_info.max)
    for q in (top + Fraction(1, 3), Fraction(10**320), Fraction(-10**320, 7)):
        with pytest.raises(OverflowError, match="out of double range"):
            from_fraction(q)


def _rand_float(rng):
    mag = 10.0 ** rng.uniform(-8, 8)
    return rng.uniform(-mag, mag)


def test_containment_randomized():
    """Point results of exact rational arithmetic stay inside interval results."""
    rng = random.Random(20240817)
    ops = {
        "+": (lambda a, b: a + b, lambda a, b: a + b),
        "-": (lambda a, b: a - b, lambda a, b: a - b),
        "*": (lambda a, b: a * b, lambda a, b: a * b),
        "/": (lambda a, b: a / b, lambda a, b: a / b),
    }
    for _ in range(2500):
        a1, a2 = sorted((_rand_float(rng), _rand_float(rng)))
        b1, b2 = sorted((_rand_float(rng), _rand_float(rng)))
        x = Interval(a1, a2)
        y = Interval(b1, b2)
        px = rng.uniform(a1, a2)
        py = rng.uniform(b1, b2)
        for name, (ivop, exop) in ops.items():
            if name == "/" and y.contains_zero():
                continue
            r = ivop(x, y)
            exact = exop(Fraction(px), Fraction(py))
            assert Fraction(r.lo) <= exact <= Fraction(r.hi), (
                f"{px} {name} {py} escaped {r}"
            )


def test_sum_width_growth():
    rng = random.Random(3)
    for _ in range(1000):
        x = _rand_float(rng)
        y = _rand_float(rng)
        r = iv(x) + iv(y)
        assert r.width <= 2 * ulp(max(abs(r.lo), abs(r.hi), 1e-300))


def test_width_growth_per_operation():
    """Result width exceeds the exact width by at most two rounding steps."""
    rng = random.Random(31)
    for _ in range(500):
        a1, a2 = sorted((_rand_float(rng), _rand_float(rng)))
        b1, b2 = sorted((_rand_float(rng), _rand_float(rng)))
        x, y = Interval(a1, a2), Interval(b1, b2)
        cases = [(x * y, [Fraction(p) * Fraction(q)
                          for p in (a1, a2) for q in (b1, b2)])]
        if not y.contains_zero():
            cases.append((x / y, [Fraction(p) / Fraction(q)
                                  for p in (a1, a2) for q in (b1, b2)]))
        for r, corners in cases:
            exact_w = max(corners) - min(corners)
            # one outward step at each endpoint
            slack = Fraction(ulp(r.lo) or 5e-324) + Fraction(ulp(r.hi) or 5e-324)
            assert Fraction(r.hi) - Fraction(r.lo) <= exact_w + slack


def test_sin_containment_vs_mpmath():
    rng = random.Random(11)
    with mpmath.workdps(40):
        for _ in range(400):
            x = rng.uniform(-30.0, 30.0)
            r = iv(x).sin()
            s = mpmath.sin(mpmath.mpf(x))
            assert mpmath.mpf(r.lo) <= s <= mpmath.mpf(r.hi)


def test_log_containment_vs_mpmath():
    rng = random.Random(13)
    with mpmath.workdps(40):
        for _ in range(400):
            x = 10.0 ** rng.uniform(-8, 8)
            r = iv(x).log()
            s = mpmath.log(mpmath.mpf(x))
            assert mpmath.mpf(r.lo) <= s <= mpmath.mpf(r.hi)


def test_product_underflowing_to_subnormal_contains_exact():
    # a*b is subnormal: TwoProd's error term is rounded there, so the
    # endpoint must be widened rather than trusted
    a, b = 0.818690436186978, 1.1125369292536007e-308
    r = Interval(a, 1.0) * Interval(b, 1.0)
    assert Fraction(r.lo) <= Fraction(a) * Fraction(b)
    q = iv(b) / iv(3.0)
    assert Fraction(q.lo) <= Fraction(b) / 3 <= Fraction(q.hi)
