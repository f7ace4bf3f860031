"""The certified L1 bound against the exact invariant density of beta x mod 1.

For T(x) = beta x mod 1 the invariant density is Parry's (On the
beta-expansions of real numbers, 1960)

    h(x) = sum_{n >= 0} beta^-n 1[x < T^n(1)],   f = h / integral h.

For rational beta the orbit t_n = T^n(1) is exact in Fraction.  The sum
over n < N, h_N, has integral C_N = sum_{n < N} beta^-n t_n, and the rest
R = h - h_N lies in [0, rho], rho = beta^(1 - N) / (beta - 1).  Then
f - h_N / C_N = R / C + h_N (1 / C - 1 / C_N) with C = C_N + integral R,
so ||f - h_N / C_N||_1 <= 2 integral R / C <= 2 rho / C_N.  The distance
from the computed density f~ (density_values, constant on each cell) to
h_N / C_N is a finite sum over the pieces between the cell edges and the
orbit points, computed exactly; with 2 rho / C_N added, it bounds
||f~ - f||_1 from above, and the certificate's eps_rig must be at least
that.
"""

import math
from fractions import Fraction as F

import pytest

from rigdens.certify import certify_l1
from rigdens.cli import parse_map
from rigdens.enclosure import contraction_sweep
from rigdens.maps import ly_coefficients_bv
from rigdens.ulam import assemble_ulam, markovize

# EQ6 and the benchmark family's two maps
BETAS = [F(17, 5), F(231, 68), F(228, 67)]
KS = [100, 256, 1000, 1024, 4096, 8192]
# orbit terms kept: rho = beta^(1 - N) / (beta - 1) < 1e-16 for beta >= 3
N_TERMS = 36


def parry(beta: F, n_terms: int = N_TERMS):
    """(points, levels, c_n, rho): h_N is levels[j] on [points[j],
    points[j + 1]), points running from 0 to 1; c_n is its integral and
    rho bounds the rest of the sum pointwise."""
    orbit, t = [], F(1)
    for _ in range(n_terms):
        orbit.append(t)
        t = beta * t - math.floor(beta * t)
    weights = [beta ** -n for n in range(n_terms)]
    points = sorted({F(0), F(1), *orbit})
    levels = [sum(w for w, t in zip(weights, orbit) if t > x)
              for x in points[:-1]]
    c_n = sum(w * t for w, t in zip(weights, orbit))
    return points, levels, c_n, beta ** (1 - n_terms) / (beta - 1)


def l1_distance(values, points, levels, scale) -> F:
    """Exact ||f~ - g||_1 for f~ = values[i] on [i/k, (i+1)/k) and g =
    levels[j] / scale on [points[j], points[j + 1])."""
    k = len(values)
    cuts = sorted(set(points) | {F(i, k) for i in range(k + 1)})
    total, j = F(0), 0
    for a, b in zip(cuts, cuts[1:]):
        while points[j + 1] <= a:
            j += 1
        total += (b - a) * abs(F(values[math.floor(a * k)]) - levels[j] / scale)
    return total


@pytest.fixture(scope="module", params=BETAS, ids=str)
def beta_map(request):
    beta = request.param
    return beta, parse_map(f"linear {beta} mod 1").build(), parry(beta)


@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_parry_density_is_invariant(beta):
    """h_N is invariant up to the tail: P h = h for the full sum, and P
    is positive with P 1 <= ceil(beta) / beta, so |P h_N - h_N| <= rho
    (1 + ceil(beta) / beta) at every point; checked exactly at rational
    points off the orbit."""
    points, levels, _, rho = parry(beta)

    def h(x):
        return levels[max(j for j, p in enumerate(points[:-1]) if p <= x)]

    bound = rho * (1 + math.ceil(beta) / beta)
    for x in (F(1, 7), F(1, 3), F(5, 11), F(2, 3), F(29, 31)):
        pre = [(x + j) / beta for j in range(math.ceil(beta))]
        transferred = sum(h(y) for y in pre if y < 1) / beta
        assert abs(transferred - h(x)) <= bound


@pytest.mark.parametrize("k", KS)
def test_true_error_within_eps_rig(beta_map, k):
    beta, m, (points, levels, c_n, rho) = beta_map
    matrix = markovize(assemble_ulam(m, k))
    contraction, density = contraction_sweep(matrix, 1e-4)
    cert = certify_l1(ly_coefficients_bv(m), matrix, contraction, density,
                      eps_num=1e-4)
    true_err = l1_distance(density.density_values.tolist(), points, levels,
                           c_n) + 2 * rho / c_n
    assert 0 < true_err <= F(cert.eps_rig)
