"""Edge paths: hostile markovize inputs, trig branches in the mass-norm
assembly, iteration of maps with partial branches."""

import math

import numpy as np

from rigdens.certify import certify_l1, lyapunov
from rigdens.enclosure import contraction_sweep
from rigdens.maps import iterate_map, ly_coefficients_bv
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize
from rigdens.cli import parse_map

from tests.csr_records import dense_csr


def test_markovize_clamps_negative_entries():
    # deficit large enough to drive the small entry negative; the row must
    # still come out stochastic, with the clamp charged to eps
    row = np.array([[1e-9, 1.2], [0.5, 0.5]])
    tm = TransitionMatrix(k=2, csr=dense_csr(row), eps=0.0, nnz_max=2)
    mk = markovize(tm)
    out = mk.csr.toarray()
    assert (out >= 0.0).all()
    assert (mk.row_sums() == 1.0).all()
    assert mk.eps > 0.05


def test_mass_norm_pipeline_on_trig_map(sinmap):
    # inf |T'| = 4 - 0.08 pi > 2, so the mass-norm route applies too;
    # the sine term makes most level preimages brackets, not exact roots
    k = 32
    matrix = markovize(assemble_ulam(sinmap, k))
    assert (matrix.row_sums() == 1.0).all()
    assert matrix.eps < 1e-4
    assert matrix.nnz_max <= math.ceil(4 + 0.08 * math.pi) + 4
    ly = ly_coefficients_bv(sinmap)
    contraction, density = contraction_sweep(matrix, 1e-4)
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-4)
    lr = lyapunov(sinmap, density, cert)
    assert lr.lo < math.log(4) < lr.hi
    assert math.isfinite(cert.eps_rig)


def test_iterate_partial_branch_map(eq6):
    m2 = iterate_map(eq6, 2)
    # three full branches split into 4 pieces each, the short partial branch
    # (image [0, 2/5]) only crosses the breakpoint at 5/17
    assert m2.branch_count == 14
    ly = ly_coefficients_bv(m2)
    assert abs(1 / ly.lam.hi - (17 / 5) ** 2) < 1e-6
    # all endpoints stay exact rationals for a linear map
    assert all(b.lo.is_exact and b.hi.is_exact for b in m2.branches)
    matrix = markovize(assemble_ulam(m2, 64))
    assert matrix.eps < 1e-15
    contraction, density = contraction_sweep(matrix, 1e-4)
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-4)
    lr = lyapunov(m2, density, cert)
    # the exponent of T^2 is exactly 2 ln(17/5)
    target = 2 * math.log(17 / 5)
    assert lr.lo < target < lr.hi
