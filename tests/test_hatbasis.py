"""Hat-basis projection properties and the linearized operator assembly."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigdens.hatbasis import LinfMatrix, _hat_product_enclosure, assemble_linearized
from rigdens.intervals import IntervalArray, iv
from rigdens.maps import ly_coefficients_lip
from rigdens.ulam import markovize

from tests.csr_records import dense_csr
from tests.hat_reference import (
    _GRID,
    HatBasis,
    assemble_reference,
    hat_product_integral,
    project_hat,
    simpson_hat_product,
)


def test_project_constant():
    c = project_hat([2.5] * 8)
    assert np.allclose(c, 2.5, atol=1e-15)


def test_project_single_hat_k4():
    # f = phi_1: self-coefficient 2/3, neighbours 1/6
    c = project_hat([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(c, [1 / 6, 2 / 3, 1 / 6, 0.0], atol=1e-15)


def test_partition_of_unity():
    basis = HatBasis(16)
    rng = np.random.default_rng(2)
    for x in rng.uniform(0, 1, size=10_000):
        s = sum(basis.eval_hat(i, x) for i in range(16))
        assert abs(s - 1.0) <= 2 * math.ulp(1.0)


def _rand_lipschitz(rng, k):
    """Node samples of a random Lipschitz function on the circle."""
    f = np.cumsum(rng.uniform(-1, 1, size=k))
    f -= np.linspace(0, f[-1] + rng.uniform(-1, 1), k)  # close up the loop
    return f


def _lip_const(f, k):
    d = np.abs(np.diff(np.append(f, f[0])))
    return d.max() * k


def test_projection_three_properties():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(4, 64))
        f = _rand_lipschitz(rng, k)
        c = project_hat(f)
        lip_f = _lip_const(f, k)
        lip_c = _lip_const(c, k)
        assert lip_c <= lip_f * (1 + 1e-12)
        assert np.abs(c).max() <= np.abs(f).max() * (1 + 1e-12)
        # both are piecewise linear on the node grid: sup of the difference
        # is attained at the nodes
        assert np.abs(c - f).max() <= lip_f / k * (1 + 1e-12)


def test_linear_map_matrix_is_exact(quadrupling):
    lm = assemble_linearized(quadrupling, 4)
    assert np.allclose(lm.csr.toarray(), 0.25, atol=1e-12)
    assert lm.lin_err == 0.0
    assert lm.eps < 1e-9


def test_linear_map_fixed_vector_uniform(quadrupling):
    mk = markovize(assemble_linearized(quadrupling, 8))
    w, v = np.linalg.eig(mk.csr.toarray().T)
    ix = int(np.argmin(np.abs(w - 1.0)))
    vec = np.real(v[:, ix])
    vec /= vec.mean()
    assert np.allclose(vec, 1.0, atol=1e-9)


def test_row_sums_near_one(sinmap):
    lm = assemble_linearized(sinmap, 64)
    sums = lm.csr.toarray().sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 64 * lm.eps + 1e-12
    mk = markovize(lm)
    assert (mk.row_sums() == 1.0).all()


def test_lin_err_formula(sinmap):
    lys = ly_coefficients_lip(sinmap)
    lm = assemble_linearized(sinmap, 128)
    expected = 4.0 * lys.distortion.hi / 128**2
    assert lm.lin_err >= expected * (1 - 1e-12)
    assert lm.lin_err <= expected * (1 + 1e-9)
    assert lm.m_sup == lys.m_sup.hi


def test_matrix_entries_enclose_dense_quadrature(sinmap):
    """Independent oracle: dense midpoint quadrature of the image-hat times
    basis-hat products must agree with the assembled entries to eps."""
    k = 32
    lm = assemble_linearized(sinmap, k)
    basis = HatBasis(k)
    dense = lm.csr.toarray()
    rng = np.random.default_rng(0)
    for i in rng.integers(0, k, size=6):
        br = next(
            b for b in sinmap.branches
            if b.domain_outer().lo <= i / k <= b.domain_outer().hi
        )
        s = br.deriv_iv(iv(i / k)).mid
        c = br.value_iv(iv(i / k)).mid
        ts = np.linspace(c - abs(s) / k, c + abs(s) / k, 20001)
        hat_img = (1 - np.abs(ts - c) / (abs(s) / k)) / abs(s)
        for j in range(k):
            phi = np.array([basis.eval_hat(j, t % 1.0) for t in ts])
            entry = k * np.trapezoid(hat_img * phi, ts)
            assert abs(entry - dense[i, j]) <= k * lm.eps + 5e-4


def test_interior_kink_rejected():
    from fractions import Fraction as F

    from rigdens.maps import Branch, Endpoint, PiecewiseMap

    # values and end derivatives match on the circle, but T' jumps 5 -> 7
    # at the interior breakpoint: not C^1, so the sup-norm route must refuse
    left = Branch(Endpoint.from_rational(0), Endpoint.from_rational(F(1, 2)),
                  (F(0), F(4), F(1)))
    right = Branch(Endpoint.from_rational(F(1, 2)), Endpoint.from_rational(1),
                   (F(-2), F(10), F(-3)))
    m = PiecewiseMap((left, right), circle=True)
    with pytest.raises(ValueError, match="not C"):
        assemble_linearized(m, 16)


def test_hat_product_closed_form_matches_simpson():
    # exact equality with the Simpson oracle, at the kinks of the integrand
    # as a function of delta (0, +-omega, +-1, +-1 +- omega) and between them
    rng = np.random.default_rng(3)
    omegas = [F(1, 2**20), F(1, 2), F(1), F(3, 2), F(7, 4)]
    omegas += [F(int(rng.integers(1, 8 * 2**20)), 2**20) for _ in range(4)]
    for w in omegas:
        kinks = {F(0), w, -w, F(1), F(-1)} | {s + t for s in (1, -1) for t in (w, -w)}
        deltas = set(kinks) | {d + F(e, _GRID) for d in kinks for e in (-1, 1)}
        deltas |= {F(int(rng.integers(-4 * 2**20, 4 * 2**20)), 2**20)
                   for _ in range(20)}
        for d in deltas:
            assert hat_product_integral(d, w) == simpson_hat_product(d, w)


def test_hat_product_rejects_off_grid_arguments():
    with pytest.raises(ValueError, match="dyadic grid"):
        hat_product_integral(F(1, 3), F(1))
    with pytest.raises(ValueError, match="dyadic grid"):
        hat_product_integral(F(0), F(1, 3))


def test_closed_form_enclosure_contains_exact_integral():
    # the interval closed form encloses the exact one at the kinks of the
    # integrand in delta, just off them and between them, on point
    # arguments and on brackets around them
    rng = np.random.default_rng(5)
    deltas, omegas = [], []
    for w in [F(1, 2**20), F(1, 2), F(1), F(7, 4), F(4), F(131, 32)]:
        kinks = {F(0), w, -w, F(1), F(-1)} | {s + t for s in (1, -1) for t in (w, -w)}
        ds = set(kinks) | {d + F(e, _GRID) for d in kinks for e in (-1, 1)}
        ds |= {F(int(rng.integers(-8 * 2**20, 8 * 2**20)), 2**20) for _ in range(20)}
        deltas += sorted(ds)
        omegas += [w] * len(ds)
    d = np.array([float(d) for d in deltas])
    w = np.array([float(w) for w in omegas])
    enc = _hat_product_enclosure(IntervalArray(d), IntervalArray(w))
    r = 2.0 ** -40  # bracket half-widths, as node enclosures have
    wide = _hat_product_enclosure(IntervalArray(d - r, d + r),
                                  IntervalArray(w - r, w + r))
    for d, w, lo, hi, wlo, whi in zip(deltas, omegas, enc.lo.tolist(),
                                       enc.hi.tolist(), wide.lo.tolist(),
                                       wide.hi.tolist()):
        exact = hat_product_integral(d, w)
        assert F(lo) <= exact <= F(hi)
        assert wlo <= lo and hi <= whi
        if w >= 1:  # expanding maps: the width ratio is |T'| > 1
            assert hi - lo <= 1e-13
            assert whi - wlo <= 1e-9
        if exact == 0:
            assert lo == hi == 0.0


_DYADIC = 1 << 20  # the denominator of the drawn offsets and widths


@settings(max_examples=400, deadline=None)
@given(st.integers(-10 * _DYADIC, 10 * _DYADIC), st.integers(1, 8 * _DYADIC),
       st.one_of(st.none(), st.integers(20, 52)))
@example(0, _DYADIC, None)  # a kink of the integrand at delta = 0
@example(5 * _DYADIC - 1, 4 * _DYADIC, None)  # supports overlap by 2^-20
@example(3 * _DYADIC, 2 * _DYADIC, 20)
@example(-1, 1, 52)  # the narrowest hat
def test_float_simpson_encloses_exact_integral(n_delta, n_omega, exponent):
    """Exact rationals against the float Simpson enclosure: on a point
    (dyadic delta, omega in (0, 8]), the exact integral lies inside and,
    for omega >= 1, the enclosure is at most 1e-13 wide; on a bracket of
    radius 2^-exponent around them, the integral at the centre and at the
    four corners lies inside."""
    delta, omega = F(n_delta, _DYADIC), F(n_omega, _DYADIC)
    if exponent is None:
        d_lo = d_hi = float(delta)
        w_lo = w_hi = float(omega)
    else:
        r = 2.0 ** -exponent
        d_lo, d_hi = float(delta) - r, float(delta) + r
        w_lo, w_hi = max(float(omega) - r, float(omega) / 2), float(omega) + r
    enc = _hat_product_enclosure(IntervalArray(np.array([d_lo]), np.array([d_hi])),
                                 IntervalArray(np.array([w_lo]), np.array([w_hi])))
    lo, hi = F(float(enc.lo[0])), F(float(enc.hi[0]))
    assert 0 <= lo <= hat_product_integral(delta, omega) <= hi
    if exponent is None and omega >= 1:
        assert hi - lo <= F(1e-13)
    for d in (d_lo, d_hi):
        for w in (w_lo, w_hi):
            assert lo <= simpson_hat_product(F(d), F(w)) <= hi


@pytest.mark.parametrize("k", [4, 8, 64, 257])
def test_assembly_matches_scalar_reference(sinmap, k):
    """The interval-array assembly against the node-by-node scalar one:
    the same support, and every entry within the recorded eps."""
    fast, ref = assemble_linearized(sinmap, k), assemble_reference(sinmap, k)
    assert np.array_equal(fast.csr.indptr, ref.csr.indptr)
    assert np.array_equal(fast.csr.indices, ref.csr.indices)
    assert (fast.csr.nnz, fast.nnz_max) == (ref.csr.nnz, ref.nnz_max)
    assert np.abs(fast.csr.data - ref.csr.data).max() <= fast.eps
    assert ref.eps <= fast.eps <= ref.eps + 1e-12
    assert (fast.lin_err, fast.m_sup) == (ref.lin_err, ref.m_sup)


def _mp_hat_product(delta, omega):
    """Integral of tri(t;1) * tri(t-delta;omega) in mpmath: Simpson on the
    pieces between the kinks, on each of which the product is quadratic."""
    lo, hi = max(-1, delta - omega), min(1, delta + omega)
    if hi <= lo:
        return mpmath.mpf(0)
    pts = sorted({lo, hi} | {p for p in (mpmath.mpf(0), delta) if lo < p < hi})

    def f(t):
        return max(0, 1 - abs(t)) * max(0, 1 - abs(t - delta) / omega)

    return sum((q - p) * (f(p) + 4 * f((p + q) / 2) + f(q)) / 6
               for p, q in zip(pts, pts[1:]))


@pytest.mark.parametrize("k", [8, 64, 257])
def test_sinmap_entries_match_mpmath_oracle(sinmap, k):
    """Independent 50-digit oracle for SINMAP, T(x) = 4x + sin(8 pi x)/100
    (mod 1): T(a_i), T'(a_i) and the hat-product integrals.  Every stored
    entry is within eps of it, and the stored columns are exactly those
    with |k T(a_i) - j| < |T'(a_i)| + 1, away from that boundary."""
    lm = assemble_linearized(sinmap, k)
    with mpmath.workdps(50):
        amp = mpmath.mpf(1) / 100
        for i in range(k):
            a = mpmath.mpf(i) / k
            u = k * (4 * a + amp * mpmath.sin(8 * mpmath.pi * a))
            omega = abs(4 + 8 * mpmath.pi * amp * mpmath.cos(8 * mpmath.pi * a))
            oracle, boundary = {}, set()
            for j in range(int(mpmath.floor(u - omega)) - 1,
                           int(mpmath.ceil(u + omega)) + 2):
                if abs(abs(u - j) - (omega + 1)) < 1e-9:
                    boundary.add(j % k)
                if abs(u - j) < omega + 1:
                    oracle[j % k] = oracle.get(j % k, 0) + \
                        _mp_hat_product(u - j, omega) / omega
            lo, hi = lm.csr.indptr[i], lm.csr.indptr[i + 1]
            stored = dict(zip(lm.csr.indices[lo:hi].tolist(),
                              lm.csr.data[lo:hi].tolist()))
            assert set(stored) - boundary == set(oracle) - boundary
            for j, v in stored.items():
                assert abs(mpmath.mpf(v) - oracle.get(j, 0)) <= lm.eps


def test_linf_matrix_needs_its_map_constants():
    """A sup-norm matrix without lin_err and m_sup would charge no
    linearization error and M = 1 whatever the map, so both are required."""
    with pytest.raises(TypeError):
        LinfMatrix(k=2, csr=dense_csr(np.eye(2)), eps=0.0, nnz_max=1)


@pytest.mark.parametrize("k", [8, 17, 64, 1024])
@pytest.mark.parametrize("amp", ["0.00995", "0.01", "0.01005"])
def test_trimmed_window_drops_only_zero_entries(amp, k, monkeypatch):
    # the SINMAP family; at small k a window wraps onto columns twice
    from rigdens import hatbasis
    from rigdens.cli import parse_map

    m = parse_map(f"circle\npoly [0,1] : 4x + {amp} sin(8 pi x) mod 1").build()
    trimmed = assemble_linearized(m, k)
    window = hatbasis._column_window

    def wider(u_enc, omega_enc):
        first, count = window(u_enc, omega_enc)
        return first - 3, count + 6

    monkeypatch.setattr(hatbasis, "_column_window", wider)
    assert_same_matrix(trimmed, assemble_linearized(m, k))


def assert_same_matrix(a, b):
    for x, y in ((a.csr.indptr, b.csr.indptr), (a.csr.indices, b.csr.indices),
                 (a.csr.data.view(np.int64), b.csr.data.view(np.int64))):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    assert (a.eps, a.nnz_max) == (b.eps, b.nnz_max)


@pytest.mark.parametrize("k", [257, 1024])
def test_node_blocks_match_one_pass(sinmap, k, monkeypatch):
    # blocks of 64 nodes divide k = 1024 and leave a one-node block at
    # k = 257; blocks of 100 divide neither: every blocked matrix has the
    # bits of the single-block one
    from rigdens import hatbasis

    assert k <= hatbasis._NODE_BLOCK
    one_pass = assemble_linearized(sinmap, k)
    for block in (64, 100):
        monkeypatch.setattr(hatbasis, "_NODE_BLOCK", block)
        assert_same_matrix(one_pass, assemble_linearized(sinmap, k))
