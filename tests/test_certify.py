"""Error-bound assembly and the certified Lyapunov interval."""

import json
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigdens.certify import (
    certify_l1,
    certify_linf,
    lyapunov,
    report,
)
from rigdens.enclosure import ContractionCertificate, EnclosedDensity, contraction_sweep
from rigdens.hatbasis import LinfMatrix, assemble_linearized
from rigdens.intervals import Interval, iv
from rigdens.maps import (
    LYCoefficientsBV,
    LYCoefficientsLip,
    ly_coefficients_bv,
    ly_coefficients_lip,
)
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize
from scipy import sparse


def synthetic_bv(lam, b):
    lam_i = iv(lam)
    b_i = iv(b)
    return LYCoefficientsBV(lam=lam_i, b_prime=b_i * (iv(1) - iv(2) * lam_i),
                            b=b_i, min_branch_len=iv(0.1), distortion=iv(0.0))


def synthetic_matrix(k, eps, nnz, norm_kind="L1", **extra):
    csr = sparse.csr_matrix(np.eye(2))
    if norm_kind == "L1":
        return TransitionMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz)
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz, **extra)


def synthetic_contraction(n_eps, n_true, norm_kind="L1"):
    return ContractionCertificate(n_eps=n_eps, n_true=n_true,
                                  per_step_bounds=[0.4], inflation_per_step=0.0,
                                  norm_kind=norm_kind)


def synthetic_density(values, norm_kind="L1", radius=0.0):
    return EnclosedDensity(values=np.asarray(values, dtype=float),
                           radius=radius, l=0, norm_kind=norm_kind)


TABLE_L1 = [
    # (B, N, N_eps, NNZ, eps, eps_num, table eps_rig)
    ("lanford2", 19.88, 18, 17, 10, 3e-11, 1e-4, 0.0016),
    ("eq4", 32.03, 14, 13, 8, 1e-12, 1e-4, 0.0019),
    ("eq6", 41.47, 14, 13, 7, 1.75e-10, 1e-4, 0.0026),
    ("eq7", 54.69, 15, 14, 7, 2.19e-11, 1e-4, 0.004),
]


@pytest.mark.parametrize("name,b,n,n_eps,nnz,eps,eps_num,expected", TABLE_L1)
def test_certify_l1_reproduces_reference_bounds(name, b, n, n_eps, nnz, eps,
                                               eps_num, expected):
    k = 2**20
    ly = synthetic_bv(0.32, b)
    # the table's numeric term is eps_num: the density charges it
    cert = certify_l1(ly, synthetic_matrix(k, eps, nnz),
                      synthetic_contraction(n_eps, n),
                      synthetic_density([1.0], radius=eps_num),
                      eps_num=eps_num, map_id=name)
    direct = 2 * n * (2 * b / k) + 4 * n_eps * nnz * eps + eps_num
    assert math.isclose(cert.eps_rig, direct, rel_tol=1e-9)
    assert abs(cert.eps_rig - expected) / expected < 0.20


def test_certify_l1_lanford_direct_arithmetic():
    # 2*18*2*19.88/2^20 ~ 0.00137 plus the matrix and numeric terms
    ly = synthetic_bv(0.32, 19.88)
    cert = certify_l1(ly, synthetic_matrix(2**20, 3e-11, 10),
                      synthetic_contraction(17, 18), synthetic_density([1.0]),
                      eps_num=1e-4)
    assert math.isclose(cert.err_discretization, 2 * 18 * 2 * 19.88 / 2**20,
                        rel_tol=1e-9)
    assert math.isclose(cert.err_matrix, 4 * 17 * 10 * 3e-11, rel_tol=1e-9)


_TINY = st.floats(min_value=1e-300, max_value=1e-3)


@settings(max_examples=200, deadline=None)
@given(eps=_TINY, nnz=st.integers(1, 1000), n_eps=st.integers(1, 200))
def test_certify_l1_matrix_term_not_below_paper(eps, nnz, n_eps):
    # 2 N_eps step_error rounds twice; it must still cover 4 N_eps NNZ eps
    cert = certify_l1(synthetic_bv(0.25, 1.0), synthetic_matrix(1024, eps, nnz),
                      synthetic_contraction(n_eps, n_eps),
                      synthetic_density([1.0]), eps_num=1e-4)
    assert F(cert.err_matrix) >= 4 * n_eps * nnz * F(eps)


@settings(max_examples=200, deadline=None)
@given(eps=_TINY, lin_err=_TINY, m_sup=st.floats(1.0, 10.0),
       n=st.integers(1, 200), v_sup=st.floats(0.5, 2.0), rho=_TINY)
def test_certify_linf_matrix_term_not_below_paper(eps, lin_err, m_sup, n,
                                                  v_sup, rho):
    mat = synthetic_matrix(128, eps, 4, norm_kind="Linf", lin_err=lin_err,
                           m_sup=m_sup)
    cert = certify_linf(synthetic_lip(0.25, m_sup - 1.0, 0.0, 0.5, 0.0), mat,
                        synthetic_contraction(n, n, "Linf"),
                        synthetic_density([v_sup, -0.5], "Linf", radius=rho),
                        eps_num=1e-5)
    assert F(cert.err_matrix) >= (2 * n * F(m_sup) ** 2 * (F(eps) + F(lin_err))
                                  * (F(v_sup) + F(rho)))


def test_certify_l1_zero_errors_vanish():
    ly = synthetic_bv(0.25, 0.0)
    cert = certify_l1(ly, synthetic_matrix(1024, 0.0, 4),
                      synthetic_contraction(3, 3), synthetic_density([1.0]),
                      eps_num=0.0)
    assert cert.eps_rig == 0.0


def test_certify_l1_component_sum():
    ly = synthetic_bv(0.3, 25.0)
    cert = certify_l1(ly, synthetic_matrix(4096, 1e-9, 6),
                      synthetic_contraction(7, 8),
                      synthetic_density([1.0], radius=1e-12),
                      eps_num=1e-4)
    s = cert.err_discretization + cert.err_matrix + cert.err_numeric
    assert cert.eps_rig >= s * (1 - 1e-12)
    assert cert.eps_rig <= s * (1 + 1e-12)


def test_certify_l1_monotone_in_eps_num():
    # a density enclosed to within eps_num, charged as such
    ly = synthetic_bv(0.3, 25.0)
    args = (ly, synthetic_matrix(4096, 1e-9, 6), synthetic_contraction(7, 8))
    prev = -1.0
    for eps_num in (1e-6, 1e-5, 1e-4, 1e-3):
        cert = certify_l1(*args, synthetic_density([1.0], radius=eps_num),
                          eps_num=eps_num)
        assert cert.eps_rig >= prev
        prev = cert.eps_rig


def test_certify_l1_rejects_wide_lambda():
    ly = synthetic_bv(0.51, 10.0)
    with pytest.raises(ValueError):
        certify_l1(ly, synthetic_matrix(64, 0.0, 2),
                   synthetic_contraction(1, 1), synthetic_density([1.0]),
                   eps_num=0.0)


def synthetic_lip(lam, b, b_one, alpha, dist):
    return LYCoefficientsLip(lam=iv(lam), b_var=iv(b), m_sup=iv(b) + iv(1),
                             b_one=iv(b_one), k_iter=1, alpha=iv(alpha),
                             distortion=iv(dist))


def test_certify_linf_synthetic_exact_value():
    # M=1, B1=0, alpha=1/2, D=0, eps=0, eps_num=0, N=1, B=0, k=100 -> 0.08
    ly = synthetic_lip(0.25, 0.0, 0.0, 0.5, 0.0)
    mat = synthetic_matrix(100, 0.0, 4, norm_kind="Linf", lin_err=0.0, m_sup=1.0)
    cert = certify_linf(ly, mat, synthetic_contraction(1, 1, "Linf"),
                        synthetic_density([1.0], "Linf"), eps_num=0.0)
    assert math.isclose(cert.eps_rig, 0.08, rel_tol=1e-12)


def test_certify_linf_distortion_free_scaling():
    # D=0, B=B1=0, M=1 collapses the bracket to 4: eps_rig <= (2/k) N 4 + numeric
    ly = synthetic_lip(0.25, 0.0, 0.0, 0.25, 0.0)
    for k, n in ((128, 3), (256, 3)):
        mat = synthetic_matrix(k, 0.0, 4, norm_kind="Linf", lin_err=0.0, m_sup=1.0)
        cert = certify_linf(ly, mat, synthetic_contraction(n, n, "Linf"),
                            synthetic_density([1.0], "Linf"), eps_num=0.0)
        assert cert.eps_rig <= (2 / k) * n * 4 + 1e-15


def test_certify_linf_reference_scale():
    # the reference sup-norm run: k = 131072 gives eps_rig ~ 0.004
    ly = synthetic_lip(0.27, 0.62, 1.8, 0.44, 0.45)
    mat = synthetic_matrix(131072, 2**-50, 12, norm_kind="Linf",
                           lin_err=4e-10, m_sup=1.62)
    cert = certify_linf(ly, mat, synthetic_contraction(2, 3, "Linf"),
                        synthetic_density([1.0], "Linf", radius=1e-5),
                        eps_num=1e-5)
    assert abs(cert.eps_rig - 0.004) / 0.004 < 0.20


def test_lyapunov_tripling_contains_log3(tripling):
    mk = markovize(assemble_ulam(tripling, 27))
    ly = ly_coefficients_bv(tripling)
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly, mk, contraction, density, eps_num=1e-4)
    lr = lyapunov(tripling, density, cert)
    with mpmath.workdps(40):
        ln3 = mpmath.log(3)
        assert mpmath.mpf(lr.lo) < ln3 < mpmath.mpf(lr.hi)
    # constant derivative: quadrature is tight, radius ~ sup log * eps_rig
    assert lr.radius <= math.log(3) * cert.eps_rig * 1.01


@pytest.mark.parametrize("k", [32, 64, 100, 243])
def test_lyapunov_eq6_contains_exact_value(eq6, k):
    mk = markovize(assemble_ulam(eq6, k))
    ly = ly_coefficients_bv(eq6)
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly, mk, contraction, density, eps_num=1e-4)
    lr = lyapunov(eq6, density, cert)
    with mpmath.workdps(40):
        target = mpmath.log(17) - mpmath.log(5)
        assert mpmath.mpf(lr.lo) < target < mpmath.mpf(lr.hi)


def test_lyapunov_linf_mode(sinmap):
    lys = ly_coefficients_lip(sinmap)
    mk = markovize(assemble_linearized(sinmap, 256))
    contraction, density = contraction_sweep(mk, 1e-5)
    cert = certify_linf(lys, mk, contraction, density, eps_num=1e-5)
    lr = lyapunov(sinmap, density, cert)
    assert lr.lo < math.log(4) < lr.hi  # crude containment of log(mean slope)
    assert math.isfinite(cert.eps_rig)


def test_report_json_roundtrip(tripling):
    mk = markovize(assemble_ulam(tripling, 27))
    ly = ly_coefficients_bv(tripling)
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly, mk, contraction, density, eps_num=1e-4,
                      map_id="tripling")
    lr = lyapunov(tripling, density, cert)
    rep = report(cert, lr)
    data = json.loads(rep.to_json())
    assert data == rep.data
    assert json.loads(json.dumps(data)) == data
    for key in ("mode", "map_id", "k", "nu", "eps", "eps_num", "nnz_max", "l",
                "n_eps", "n_true", "lambda", "b_prime", "b", "err_components",
                "eps_rig", "lyap"):
        assert key in data
    assert set(data["err_components"]) == {"discretization", "matrix", "numeric"}
    assert data["lyap"]["lo"] < math.log(3) < data["lyap"]["hi"]


def test_report_without_lyapunov(tripling):
    mk = markovize(assemble_ulam(tripling, 27))
    ly = ly_coefficients_bv(tripling)
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly, mk, contraction, density, eps_num=1e-4)
    rep = report(cert)
    assert rep.data["lyap"] is None
    assert "L_exp   -" in rep.text


def _scalar_cell_terms(m, density, k):
    """The per-cell scalar loop: hull of |T'| over each outward-rounded
    cell, its log, times the cell weight, one scalar Interval each."""
    vals = density.values
    terms = []
    for i in range(k):
        cell = Interval((iv(i) / iv(k)).lo, (iv(i + 1) / iv(k)).hi)
        pieces = []
        for b in m.branches:
            dom = b.domain_outer()
            if dom.lo < cell.hi and cell.lo < dom.hi:
                seg = Interval(max(dom.lo, cell.lo), min(dom.hi, cell.hi))
                pieces.append(abs(b.deriv_iv(seg)))
        log_d = Interval.hull(*pieces).log()
        if density.norm_kind == "L1":
            w = iv(float(vals[i]))
        else:
            w = (iv(float(vals[i])) + iv(float(vals[(i + 1) % k]))) / iv(2) / iv(k)
        terms.append(log_d * w)
    return terms


@pytest.mark.parametrize("name,mode,k", [("eq6", "L1", 256), ("sinmap", "Linf", 128)])
def test_lyapunov_contains_scalar_reference(request, name, mode, k):
    """The reference: the per-cell scalar products summed exactly, plus the
    same slack; the certified interval must contain all of it."""
    m = request.getfixturevalue(name)
    if mode == "L1":
        ly = ly_coefficients_bv(m)
        mk = markovize(assemble_ulam(m, k))
        contraction, density = contraction_sweep(mk, 1e-4)
        cert = certify_l1(ly, mk, contraction, density, eps_num=1e-4)
    else:
        ly = ly_coefficients_lip(m)
        mk = markovize(assemble_linearized(m, k))
        contraction, density = contraction_sweep(mk, 1e-5)
        cert = certify_linf(ly, mk, contraction, density, eps_num=1e-5)
    lr = lyapunov(m, density, cert)
    terms = _scalar_cell_terms(m, density, k)
    log_mag = max(abs(m.abs_deriv_sup.log().hi), abs(m.abs_deriv_inf.log().lo))
    slack = F((iv(log_mag) * iv(cert.eps_rig)).hi)
    ref_lo = sum(F(t.lo) for t in terms) - slack
    ref_hi = sum(F(t.hi) for t in terms) + slack
    assert F(lr.lo) <= ref_lo and ref_hi <= F(lr.hi)
    # the fsum bound adds about one ulp per end, not one per cell
    assert F(lr.hi) - F(lr.lo) - (ref_hi - ref_lo) < 1e-13
