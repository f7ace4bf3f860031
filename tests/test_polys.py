"""Exact rational polynomial helpers and the branch preimage routine."""

from fractions import Fraction as F

import numpy as np

from rigdens.intervals import Interval, from_fraction
from rigdens.maps import Branch, Endpoint, level_crossing
from rigdens.polys import (
    poly_compose,
    poly_derivative,
    poly_eval,
    poly_eval_iv,
    poly_mul,
)


def _branch(poly):
    return Branch(Endpoint.from_rational(0), Endpoint.from_rational(1),
                  tuple(poly))


def _bracket(branch, level, a, c):
    """The rational bracket level_crossing gives for one rational level."""
    lo, hi, scale = level_crossing(branch, np.array([level.numerator]),
                                   level.denominator, a, c)
    return F(lo.tolist()[0]) / scale, F(hi.tolist()[0]) / scale


def test_eval_exact():
    p = [F(1, 8), F(3), F(2)]  # 1/8 + 3x + 2x^2
    assert poly_eval(p, F(1, 4)) == F(1)
    assert poly_eval(p, F(0)) == F(1, 8)


def test_eval_interval_contains_exact():
    p = [F(1, 3), F(-2), F(5, 7)]
    x = F(9, 11)
    exact = poly_eval(p, x)
    enc = poly_eval_iv([from_fraction(c) for c in p], Interval(float(x), float(x)))
    assert F(enc.lo) <= exact <= F(enc.hi)


def test_derivative():
    assert poly_derivative([F(1), F(2), F(3)]) == [F(2), F(6)]
    assert poly_derivative([F(5)]) == [F(0)]


def test_compose_quadratics():
    inner = [F(0), F(5, 2), F(-1, 2)]
    comp = poly_compose(inner, inner)
    # degree 4, matching a point evaluation
    assert len(comp) == 5
    x = F(1, 3)
    assert poly_eval(comp, x) == poly_eval(inner, poly_eval(inner, x))


def test_mul():
    assert poly_mul([F(1), F(1)], [F(1), F(-1)]) == [F(1), F(0), F(-1)]


def test_root_bracket_linear_exact():
    lo, hi = _bracket(_branch([F(0), F(3)]), F(1), F(0), F(1))
    assert lo == hi == F(1, 3)


def test_root_bracket_quadratic():
    # 2.5x - 0.5x^2 = 1 has the root (5 - sqrt(17))/2 in [0, 1]
    p = [F(0), F(5, 2), F(-1, 2)]
    lo, hi = _bracket(_branch(p), F(1), F(0), F(1))
    assert 0 < hi - lo <= F(1, 10**14)
    assert poly_eval(p, lo) <= 1 <= poly_eval(p, hi)


def test_root_bracket_requires_sign_change():
    # x + x^2 stays below 10 on [0, 1]: no crossing inside, so the bracket
    # closes in on the end the crossing lies beyond
    lo, hi = _bracket(_branch([F(0), F(1), F(1)]), F(10), F(0), F(1))
    assert hi == 1 and 1 - lo <= F(1, 10**14)
    # a falling branch crossing 10 left of [0, 1] brackets the left end
    lo, hi = _bracket(_branch([F(2), F(-1), F(-1)]), F(10), F(0), F(1))
    assert lo == 0 and hi <= F(1, 10**14)
