"""Cross-resolution consistency: certified balls at different k intersect.

Two runs of the same map at different partition sizes both enclose the one
true invariant density, so the distance between their computed densities
can never exceed the sum of their certified error bounds.  This exercises
the entire chain (coefficients, assembly, enclosure, certificate) at once.
"""

import numpy as np

from rigdens.certify import certify_l1, certify_linf
from rigdens.enclosure import contraction_sweep
from rigdens.hatbasis import assemble_linearized
from rigdens.maps import ly_coefficients_bv, ly_coefficients_lip
from rigdens.ulam import assemble_ulam, markovize


def _l1_run(m, k):
    ly = ly_coefficients_bv(m)
    matrix = markovize(assemble_ulam(m, k))
    contraction, density = contraction_sweep(matrix, 1e-5)
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-5)
    return density, cert


def test_l1_certified_balls_intersect(eq6):
    d1, c1 = _l1_run(eq6, 256)
    d2, c2 = _l1_run(eq6, 1024)
    # compare as piecewise constant densities: refine the coarse vector
    fine_from_coarse = np.repeat(d1.values, 4) / 4.0
    dist = np.abs(fine_from_coarse - d2.values).sum()
    assert dist <= c1.eps_rig + c2.eps_rig
    # and both certificates shrink with k
    assert c2.eps_rig < c1.eps_rig


def test_l1_certified_balls_intersect_quadratic(eq4):
    d1, c1 = _l1_run(eq4, 128)
    d2, c2 = _l1_run(eq4, 512)
    fine_from_coarse = np.repeat(d1.values, 4) / 4.0
    dist = np.abs(fine_from_coarse - d2.values).sum()
    assert dist <= c1.eps_rig + c2.eps_rig


def _linf_run(m, k):
    ly = ly_coefficients_lip(m)
    matrix = markovize(assemble_linearized(m, k))
    contraction, density = contraction_sweep(matrix, 1e-6)
    cert = certify_linf(ly, matrix, contraction, density, eps_num=1e-6)
    return density, cert


def test_linf_certified_balls_intersect(sinmap):
    d1, c1 = _linf_run(sinmap, 256)
    d2, c2 = _linf_run(sinmap, 512)
    # nodal values at the shared (coarse) nodes
    dist = np.abs(d1.values - d2.values[::2]).max()
    assert dist <= c1.eps_rig + c2.eps_rig
    assert c2.eps_rig < c1.eps_rig
