"""Error-bound assembly and the certified Lyapunov interval."""

import itertools
import json
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigdens import enclosure
from rigdens.certify import (
    _slack,
    certify_l1,
    certify_linf,
    lyapunov,
    report,
)
from rigdens.enclosure import (ContractionCertificate, EnclosedDensity,
                               contraction_sweep, fixed_point_bound)
from rigdens.hatbasis import LinfMatrix, assemble_linearized
from rigdens.intervals import Interval, from_fraction, iv
from rigdens.maps import (
    LYCoefficientsBV,
    LYCoefficientsLip,
    ly_coefficients_bv,
    ly_coefficients_lip,
)
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize

from tests.csr_records import dense_csr


def synthetic_bv(lam, b):
    lam_i = iv(lam)
    b_i = iv(b)
    return LYCoefficientsBV(lam=lam_i, b_prime=b_i * (iv(1) - iv(2) * lam_i),
                            b=b_i, min_branch_len=iv(0.1), distortion=iv(0.0))


def synthetic_matrix(k, eps, nnz, norm_kind="L1", **extra):
    csr = dense_csr(np.eye(2))
    if norm_kind == "L1":
        return TransitionMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz)
    return LinfMatrix(k=k, csr=csr, eps=eps, nnz_max=nnz, **extra)


def synthetic_contraction(n_eps, n_true, norm_kind="L1", row_defect=0.0):
    # the synthetic matrices are identities: rows that sum to exactly 1
    return ContractionCertificate(n_eps=n_eps, n_true=n_true,
                                  per_step_bounds=[0.4], row_defect=row_defect,
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


# a row-sum defect delta of the stored matrix: 0 (the paper's terms), 2^-52
# (about twice a markovized matrix's), or larger
_DELTA = st.one_of(st.just(0.0), st.just(2.0 ** -52), st.floats(1e-300, 1e-6))


@settings(max_examples=200, deadline=None)
@given(eps=_TINY, nnz=st.integers(1, 1000), n_eps=st.integers(1, 200),
       delta=_DELTA)
def test_certify_l1_matrix_term_not_below_paper(eps, nnz, n_eps, delta):
    # (4 NNZ eps + 2 delta) S / (1 - 2 delta S), S = sum_{i<N_eps}
    # (1 + delta)^i, in rationals (4 N_eps NNZ eps at delta = 0): at or
    # above it, and above it by at most an ulp per rounding (about 2 N_eps
    # in the powers and their sums)
    cert = certify_l1(synthetic_bv(0.25, 1.0), synthetic_matrix(1024, eps, nnz),
                      synthetic_contraction(n_eps, n_eps, row_defect=delta),
                      synthetic_density([1.0]), eps_num=1e-4)
    d = F(delta)
    s = n_eps if d == 0 else ((1 + d) ** n_eps - 1) / d  # sum_{i<N_eps} (1+d)^i
    exact = (2 * nnz * F(eps) + d) * s / (F(1, 2) - d * s)
    assert exact <= F(cert.err_matrix) <= exact * (1 + (2 * n_eps + 8)
                                                   * F(2) ** -52)


@settings(max_examples=200, deadline=None)
@given(eps=_TINY, lin_err=_TINY, m_sup=st.floats(1.0, 10.0),
       n=st.integers(1, 200), k=st.integers(1, 2**24),
       v_sup=st.floats(0.5, 2.0), rho=_TINY, delta=_DELTA)
def test_certify_linf_matrix_term_not_below_paper(eps, lin_err, m_sup, n, k,
                                                  v_sup, rho, delta):
    # 2 N M^2 (eps + lin_err + delta k) (||v||_inf + rho) in rationals
    mat = synthetic_matrix(k, eps, 4, norm_kind="Linf", lin_err=lin_err,
                           m_sup=m_sup)
    cert = certify_linf(synthetic_lip(0.25, m_sup - 1.0, 0.0, 0.5, 0.0), mat,
                        synthetic_contraction(n, n, "Linf", row_defect=delta),
                        synthetic_density([v_sup, -0.5], "Linf", radius=rho),
                        eps_num=1e-5)
    exact = (2 * n * F(m_sup) ** 2 * (F(eps) + F(lin_err) + F(delta) * k)
             * (F(v_sup) + F(rho)))
    assert exact <= F(cert.err_matrix) <= exact * (1 + (n + 16) * F(2) ** -52)


@settings(max_examples=200, deadline=None)
@given(b=st.floats(1e-3, 1e4), n=st.integers(1, 200),
       k=st.integers(1, 2**24), nnz=st.integers(1, 1000),
       eps=st.one_of(st.just(0.0), st.floats(1e-200, 1e-3)))
def test_certify_l1_paper_instance_bit_for_bit(b, n, k, eps, nnz):
    # the L1 rows of the lemma (c_i = 1, alpha = 1/2) are the paper's
    # 2N(2B/k) and 2 N_eps step_error with the rounding of the inline
    # formulas they replaced, so criterion 3 keeps its meaning.  (Below
    # 2^-968 the interval layer cannot prove a product exact, and halving
    # the denominator costs an ulp there.)
    ly = synthetic_bv(0.25, b)
    mat = synthetic_matrix(k, eps, nnz)
    cert = certify_l1(ly, mat, synthetic_contraction(n, n),
                      synthetic_density([1.0]), eps_num=1e-4)
    assert cert.err_discretization == (iv(2) * iv(n)
                                       * (iv(2) * ly.b / iv(k))).hi
    assert cert.err_matrix == (iv(2) * iv(n) * iv(mat.step_error)).hi


@pytest.mark.parametrize("mode", ["L1", "Linf"])
def test_incomplete_contraction_rejected(mode):
    contraction = ContractionCertificate(n_eps=1, n_true=None,
                                         per_step_bounds=[0.4], row_defect=0.0,
                                         norm_kind=mode)
    if mode == "L1":
        certify, ly = certify_l1, synthetic_bv(0.25, 1.0)
        mat = synthetic_matrix(64, 0.0, 2)
    else:
        certify, ly = certify_linf, synthetic_lip(0.25, 0.0, 0.0, 0.5, 0.0)
        mat = synthetic_matrix(64, 0.0, 2, "Linf", lin_err=0.0, m_sup=1.0)
    with pytest.raises(ValueError, match="contraction certificate incomplete"):
        certify(ly, mat, contraction, synthetic_density([1.0], mode),
                eps_num=1e-4)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.01, 0.9), b=st.floats(0.0, 10.0),
       b_one=st.floats(0.0, 10.0), alpha=st.floats(0.0, 0.99),
       dist=st.floats(0.0, 10.0), n=st.integers(1, 200),
       k=st.integers(1, 2**20))
def test_certify_linf_discretization_term_not_below_paper(lam, b, b_one,
                                                          alpha, dist, n, k):
    # (2/k) N M ((4/k) D + 2(M + 1)M(1 + B1/(1 - a))) (B + 1) in rationals,
    # from the upper ends of the enclosures; above it by at most an ulp per
    # rounding (n - 1 in the sum of the c_i = M, a dozen more)
    ly = synthetic_lip(lam, b, b_one, alpha, dist)
    cert = certify_linf(ly, synthetic_matrix(k, 0.0, 4, norm_kind="Linf",
                                             lin_err=0.0, m_sup=1.0),
                        synthetic_contraction(n, n, "Linf"),
                        synthetic_density([1.0], "Linf"), eps_num=1e-5)
    m, d, b1, a, bv = (F(x.hi) for x in (ly.m_sup, ly.distortion, ly.b_one,
                                         ly.alpha, ly.b_var))
    exact = (F(2, k) * n * m * (F(4, k) * d + 2 * (m + 1) * m * (1 + b1 / (1 - a)))
             * (bv + 1))
    assert exact <= F(cert.err_discretization) <= exact * (1 + (n + 16)
                                                           * F(2) ** -52)


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


def _scalar_cells(m, density, k):
    """The per-cell scalar loop: (log|T'|, weight) of each cell, the log of
    the hull of |T'| over the outward-rounded cell and the cell's mass, one
    scalar Interval each."""
    vals = density.values
    cells = []
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
        cells.append((log_d, w))
    return cells


@pytest.mark.parametrize("name,mode,k", [("eq6", "L1", 256), ("sinmap", "Linf", 128)])
def test_lyapunov_contains_scalar_reference(request, name, mode, k):
    """The reference: the per-cell scalar products summed exactly, plus the
    centred slack in rationals, (osc/2) eps_rig + |c| |1 - mass| with c the
    midpoint of the cells' log|T'| hull and mass the exact sum of the cell
    weights; the certified interval must contain all of it."""
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
    cells = _scalar_cells(m, density, k)
    g = Interval.hull(*(log_d for log_d, _ in cells))
    c = F(g.mid)
    mass = [sum(F(getattr(w, end)) for _, w in cells) for end in ("lo", "hi")]
    slack = (max(F(g.hi) - c, c - F(g.lo)) * F(cert.eps_rig)
             + abs(c) * max(abs(1 - x) for x in mass))
    terms = [log_d * w for log_d, w in cells]
    ref_lo = sum(F(t.lo) for t in terms) - slack
    ref_hi = sum(F(t.hi) for t in terms) + slack
    assert F(lr.lo) <= ref_lo and ref_hi <= F(lr.hi)
    # the fsum bound adds about one ulp per end, not one per cell
    assert F(lr.hi) - F(lr.lo) - (ref_hi - ref_lo) < 1e-13


@pytest.mark.parametrize("name,slope,k", [("tripling", 3, 27), ("eq6", F(17, 5), 256)])
def test_lyapunov_of_linear_map_is_narrow(request, name, slope, k):
    # log|T'| is one value, so the slack is a few ulps of it and the
    # interval is narrow, whatever eps_rig is
    m = request.getfixturevalue(name)
    mk = markovize(assemble_ulam(m, k))
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly_coefficients_bv(m), mk, contraction, density,
                      eps_num=1e-4)
    lr = lyapunov(m, density, cert)
    with mpmath.workdps(40):
        target = mpmath.log(slope.numerator) - mpmath.log(slope.denominator)
        assert mpmath.mpf(lr.lo) < target < mpmath.mpf(lr.hi)
    assert cert.eps_rig > 0.01
    assert lr.hi - lr.lo < 1e-13


_G = st.floats(-50.0, 50.0)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 64), st.integers(-8, 8), _G),
                      min_size=1, max_size=12),
       shift=st.integers(0, 60))
@example(cells=[(1, 1, 2.5), (3, 0, 2.5)], shift=4)
@example(cells=[(1, -8, -50.0), (0, 8, 50.0)], shift=0)
def test_slack_bounds_exact_integral(cells, shift):
    # step functions on n cells: f of masses w_i / sum w (mass 1), f~ =
    # f + d_i 2^-shift on cell i (mass 1 + delta, delta = sum d_i 2^-shift)
    # and g = g_i on cell i.  _slack, from the hull of g, ||f - f~||_1
    # rounded up and the enclosed mass of f~, bounds the exact integral of
    # g (f - f~); for a constant g (the first example) that integral is
    # g delta and all of it is the |c| |1 - mass| term
    weights = [w for w, _, _ in cells]
    assume(any(weights))
    f = [F(w, sum(weights)) for w in weights]
    f_t = [x + d * F(1, 2 ** shift) for x, (_, d, _) in zip(f, cells)]
    g = [gi for _, _, gi in cells]
    exact = sum(F(gi) * (a - b) for gi, a, b in zip(g, f, f_t))
    err = from_fraction(sum(abs(a - b) for a, b in zip(f, f_t))).hi
    mass = from_fraction(sum(f_t))
    got = _slack(Interval(min(g), max(g)), err, mass)
    assert abs(exact) <= F(got)
    if min(g) == max(g):  # up to the width of the mass's enclosure
        assert F(got) <= (abs(exact) + abs(F(g[0])) * F(mass.width)) * (
            1 + F(2) ** -50) + F(2) ** -1070


@pytest.mark.parametrize("name,k", [("eq6", 256), ("lanford2", 128)])
def test_l1_matrix_term_reads_the_model_powers(name, k, request):
    # R in L1 is the tight upper end of 1 + delta, and the matrix term is
    # the fixed-point bound fed from the model's own powers R^i
    m = request.getfixturevalue(name)
    mk = markovize(assemble_ulam(m, k))
    model = enclosure._model(mk)
    delta = model.row_defect
    assert model.op_norm == (iv(1) + iv(delta)).hi
    contraction, density = contraction_sweep(mk, 1e-4)
    cert = certify_l1(ly_coefficients_bv(m), mk, contraction, density,
                      eps_num=1e-4)
    powers = list(itertools.islice(model.powers(), cert.n_eps))
    alpha = iv(0.5) + iv(delta) * sum(map(iv, powers), iv(0))
    assert cert.err_matrix == fixed_point_bound(
        powers, alpha, iv(mk.step_error) + iv(delta))
