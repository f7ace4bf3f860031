"""Decreasing and mixed-orientation branches through every pipeline stage."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np

from rigdens.certify import certify_l1, lyapunov
from rigdens.enclosure import contraction_sweep
from rigdens.hatbasis import assemble_linearized
from rigdens.maps import iterate_map, ly_coefficients_bv
from rigdens.ulam import assemble_ulam, markovize
from rigdens.cli import parse_map

from tests.hat_reference import hat_product_integral

FALLING = "poly [0,1] : 3 - 3x mod 1"

ZIGZAG = """
poly [0, 1/3]   : 3x
poly [1/3, 2/3] : 2 - 3x
poly [2/3, 1]   : 3x - 2
"""


def test_falling_mod_split():
    m = parse_map(FALLING).build()
    assert [str(b.lo.exact) for b in m.branches] == ["0", "1/3", "2/3"]
    # each piece carries the right integer shift: values stay in [0,1]
    for b in m.branches:
        img = b.image_iv()
        assert img.lo >= -1e-12 and img.hi <= 1 + 1e-12


def test_falling_coefficients_and_exponent():
    m = parse_map(FALLING).build()
    ly = ly_coefficients_bv(m)
    assert abs(ly.lam.hi - 1 / 3) < 1e-12
    assert abs(ly.b_prime.hi - 6.0) < 1e-9
    matrix = markovize(assemble_ulam(m, 27))
    assert matrix.eps < 1e-15
    contraction, density = contraction_sweep(matrix, 1e-5)
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-5)
    lr = lyapunov(m, density, cert)
    assert lr.lo < math.log(3) < lr.hi


def test_falling_second_iterate_matches_pointwise():
    m = parse_map(FALLING).build()
    m2 = iterate_map(m, 2)
    assert m2.branch_count == 9
    from rigdens.intervals import Interval

    rng = np.random.default_rng(3)
    for x in rng.uniform(0, 1, size=50):
        # avoid breakpoint ambiguity zones
        if min(abs(x - i / 9) for i in range(10)) < 1e-6:
            continue
        y1 = next(
            b.value_iv(Interval(x, x)).mid for b in m.branches
            if b.domain_outer().lo <= x <= b.domain_outer().hi
        ) % 1.0
        y2 = next(
            b.value_iv(Interval(y1, y1)).mid for b in m.branches
            if b.domain_outer().lo <= y1 <= b.domain_outer().hi
        ) % 1.0
        composed = next(
            b.value_iv(Interval(x, x)).mid for b in m2.branches
            if b.domain_outer().lo <= x <= b.domain_outer().hi
        ) % 1.0
        assert abs(composed - y2) < 1e-9 or abs(abs(composed - y2) - 1.0) < 1e-9


def test_zigzag_uniform_density():
    m = parse_map(ZIGZAG).build()
    ly = ly_coefficients_bv(m)
    matrix = markovize(assemble_ulam(m, 27))
    assert matrix.eps < 1e-15
    contraction, density = contraction_sweep(matrix, 1e-6)
    # the zigzag preserves Lebesgue: the enclosure must contain uniform
    err = sum(abs(F(float(v)) - F(1, 27)) for v in density.values)
    assert err <= F(density.radius)  # the radius, as charged
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-6)
    lr = lyapunov(m, density, cert)
    with mpmath.workdps(30):
        assert mpmath.mpf(lr.lo) < mpmath.log(3) < mpmath.mpf(lr.hi)


def test_falling_circle_sup_norm_pipeline():
    m = parse_map("circle\npoly [0,1] : 4 - 4x mod 1").build()
    lm = markovize(assemble_linearized(m, 32))
    assert (lm.row_sums() == 1.0).all()
    contraction, density = contraction_sweep(lm, 1e-5)
    assert np.allclose(density.values, 1.0, atol=1e-6)


def test_hat_product_integral_vs_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(25):
        delta = F(int(rng.integers(-3000, 3000)), 1024)
        omega = F(int(rng.integers(256, 6000)), 1024)
        exact = hat_product_integral(delta, omega)
        d, w = float(delta), float(omega)
        with mpmath.workdps(30):
            lo, hi = max(-1.0, d - w), min(1.0, d + w)
            if hi <= lo:
                assert exact == 0
                continue
            pts = sorted({lo, hi, *(p for p in (0.0, d) if lo < p < hi)})
            num = mpmath.mpf(0)
            for p, q in zip(pts, pts[1:]):
                num += mpmath.quad(
                    lambda t: max(0.0, 1 - abs(t)) * max(0.0, 1 - abs(t - d) / w),
                    [p, q],
                )
            assert abs(float(exact) - float(num)) < 1e-12
