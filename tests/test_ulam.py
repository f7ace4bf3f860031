"""Assembly correctness against exact rational and 50-digit preimage oracles."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy import sparse

from tests.conftest import EQ4, EQ6, EQ7, LANFORD2, SINMAP, TRIPLING

from rigdens.cli import parse_map
from rigdens.intervals import from_fraction
from rigdens.maps import Branch, Endpoint, PiecewiseMap, level_crossing
from rigdens.ulam import (
    TransitionMatrix,
    assemble_row,
    assemble_ulam,
    markovize,
)


def exact_linear_ulam(slope: F, k: int):
    """Independent oracle: P_ij for T(x) = slope*x mod 1 by direct rational
    preimage measure, m(T^-1(I_j) cap I_i) * k."""
    p = {}
    for i in range(k):
        a, b = F(i, k), F(i + 1, k)
        for n in range(math.floor(slope * a), math.ceil(slope * b)):
            # piece of cell i mapping onto [n, n+1)
            lo = max(a, n / slope)
            hi = min(b, (n + 1) / slope)
            if hi <= lo:
                continue
            for j in range(k):
                c, d = F(j, k) + n, F(j + 1, k) + n
                o_lo, o_hi = max(slope * lo, c), min(slope * hi, d)
                if o_hi > o_lo:
                    p[(i, j)] = p.get((i, j), F(0)) + (o_hi - o_lo) / slope * k
    return p


@pytest.mark.parametrize("k", [3, 6, 9])
def test_tripling_matches_rational_oracle(k):
    m = parse_map("linear 3 mod 1").build()
    raw = assemble_ulam(m, k)
    oracle = exact_linear_ulam(F(3), k)
    coo = raw.csr.tocoo()
    got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert set(got) == set(oracle)
    for key, v in got.items():
        assert v == float(oracle[key])
    assert raw.eps < 1e-15


def test_tripling_k6_row0():
    m = parse_map("linear 3 mod 1").build()
    vals, errs = assemble_row(m, 0, 6)
    assert not errs
    assert vals == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}


def test_eq6_matches_rational_oracle(eq6):
    k = 34
    raw = assemble_ulam(eq6, k)
    oracle = exact_linear_ulam(F(17, 5), k)
    coo = raw.csr.tocoo()
    got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert set(got) == set(oracle)
    for key, v in got.items():
        assert abs(v - float(oracle[key])) <= 1e-16
    assert raw.eps < 1e-15


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def preimage_ulam(m, k, dps=50):
    """Independent oracle for maps with exact rational breakpoints: P_ij
    from branch preimages of the levels j/k found by dps-digit bisection,
    with the piece ends and their images in exact rationals."""
    p = {}
    with mpmath.workdps(dps + 10):
        for br in m.branches:
            coeffs = [_mp(c) for c in reversed(br.poly)]

            def cut(y, a, b, fa, fb):
                # the x in [a, b] where the branch crosses y, clamped to [a, b]
                if (y - fa) * (fb - fa) <= 0:
                    return _mp(a)
                if (y - fb) * (fa - fb) <= 0:
                    return _mp(b)
                lo, hi, up = _mp(a), _mp(b), fb > fa
                for _ in range(int(3.5 * dps) + 10):
                    mid = (lo + hi) / 2
                    if (mpmath.polyval(coeffs, mid) < _mp(y)) == up:
                        lo = mid
                    else:
                        hi = mid
                return lo

            for i in range(k):
                a = max(F(i, k), br.lo.exact)
                b = min(F(i + 1, k), br.hi.exact)
                if b <= a:
                    continue
                fa = sum(c * a ** n for n, c in enumerate(br.poly))
                fb = sum(c * b ** n for n, c in enumerate(br.poly))
                lo_img, hi_img = min(fa, fb), max(fa, fb)
                for j in range(math.floor(lo_img * k), math.ceil(hi_img * k)):
                    y0 = max(F(j, k), lo_img)
                    y1 = min(F(j + 1, k), hi_img)
                    mass = abs(cut(y1, a, b, fa, fb) - cut(y0, a, b, fa, fb))
                    if mass > 0:
                        p[(i, j)] = p.get((i, j), 0) + mass * k
    return p


# a quadratic tent: one rising and one falling branch
QUAD_TENT = "poly [0,1/2] : 3x - 2x^2; poly [1/2,1] : 3(1 - x) - 2(1 - x)^2"


@pytest.mark.parametrize("text,k", [(EQ4, 16), (EQ7, 17), (EQ7, 100),
                                    (QUAD_TENT, 24)],
                         ids=["eq4-16", "eq7-17", "eq7-100", "tent-24"])
def test_quadratic_maps_match_preimage_oracle(text, k):
    m = parse_map(text).build()
    raw = assemble_ulam(m, k)
    oracle = preimage_ulam(m, k)
    coo = raw.csr.tocoo()
    got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert set(got) == set(oracle)
    for key, v in got.items():
        assert abs(mpmath.mpf(v) - oracle[key]) <= raw.eps
    assert raw.eps < 1e-10


def reference_ulam(m, k):
    """The row-by-row reference: assemble_row for every row, each entry
    rounded once, eps the exact maximum of charged error plus rounding,
    rounded up once."""
    indptr, indices, data, eps = [0], [], [], F(0)
    for i in range(k):
        vals, errs = assemble_row(m, i, k)
        if not vals:
            raise ValueError(f"row {i} has no nonzero entries")
        for j in sorted(vals):
            f = float(vals[j])
            data.append(f)
            indices.append(j)
            eps = max(eps, errs.get(j, 0) + abs(F(f) - vals[j]))
        indptr.append(len(indices))
    return (np.array(data), np.array(indices), np.array(indptr),
            from_fraction(eps).hi)


# a slope whose numerator alone exceeds int64: its roots need Python ints
HUGE_SLOPE = "linear 30000000000000000001/10000000000000000000 mod 1"


@pytest.mark.parametrize("text,k", [
    (TRIPLING, 3), (TRIPLING, 6), (TRIPLING, 9), (TRIPLING, 81),
    (EQ6, 34), (EQ6, 8192),
    ("linear 231/68 mod 1", 1024), ("linear 228/67 mod 1", 1024),
    ("poly [0,1] : 3 - 3x mod 1", 27),
    # a breakpoint at 2/7 and an intercept of 1/3
    ("poly [0,2/7] : 1/3 + 7/3 x; poly [2/7,1] : 7/5 (x - 2/7)", 30),
    (HUGE_SLOPE, 27),
], ids=["tripling-3", "tripling-6", "tripling-9", "tripling-81", "eq6-34",
        "eq6-8192", "slope-231/68", "slope-228/67", "falling", "non-dyadic",
        "huge-slope"])
def test_exact_maps_bit_identical_to_row_reference(text, k):
    m = parse_map(text).build()
    raw = assemble_ulam(m, k)
    data, indices, indptr, eps = reference_ulam(m, k)
    assert raw.csr.data.tobytes() == data.tobytes()
    assert np.array_equal(raw.csr.indices, indices)
    assert np.array_equal(raw.csr.indptr, indptr)
    assert raw.eps == eps
    assert raw.nnz_max == int(np.diff(indptr).max())


def test_huge_slope_roots_are_python_ints():
    br = parse_map(HUGE_SLOPE).build().branches[0]
    xs, _, scale = level_crossing(br, np.arange(1, 27), 27, br.lo.exact, br.hi.exact)
    assert xs.dtype == object and scale >= 2 ** 63
    assert [F(x, scale) for x in xs] == [F(j, 27) / F(30000000000000000001,
                                                      10000000000000000000)
                                         for j in range(1, 27)]


@pytest.mark.parametrize("text", [EQ4, EQ7, LANFORD2, QUAD_TENT, SINMAP],
                         ids=["eq4", "eq7", "lanford2", "tent", "sinmap"])
@pytest.mark.parametrize("k", [64, 100])
def test_float_brackets_match_row_reference(text, k):
    """Nonlinear branches: the same support as the row reference, every
    entry within eps of it, and eps no larger.  The two share the level
    preimage brackets (a bracket depends on the branch and the level
    only), so here they agree to the bit at k = 64; at k = 100 the cell
    edges are not doubles, and their one-ulp enclosures may move an entry
    by an ulp."""
    m = parse_map(text).build()
    raw = assemble_ulam(m, k)
    data, indices, indptr, eps = reference_ulam(m, k)
    assert np.array_equal(raw.csr.indices, indices)
    assert np.array_equal(raw.csr.indptr, indptr)
    assert np.abs(raw.csr.data - data).max() <= raw.eps
    assert raw.eps <= eps


def test_preimage_on_a_cell_edge():
    """T(x) = (x^2 + x)/2 has T(1/2) = 3/8 exactly: at k = 8 the preimage
    of the level 3/8 is the cell edge 1/2 on a nonlinear branch.  Its
    float bracket straddles the edge; the exact value there places it on
    the edge, so neither cell is charged a spurious entry."""
    m = parse_map("poly [0,1] : 1/2 x^2 + 1/2 x").build()
    br = m.branches[0]
    lo, hi, _ = level_crossing(br, np.array([3]), 8, F(0), F(1))
    assert lo[0] < 0.5 < hi[0]
    raw = assemble_ulam(m, 8)
    oracle = preimage_ulam(m, 8)
    coo = raw.csr.tocoo()
    got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert set(got) == set(oracle)
    for key, v in got.items():
        assert abs(mpmath.mpf(v) - oracle[key]) <= raw.eps


def test_sine_root_outside_the_piece():
    """x + 7/20 sin(2 pi x) on [0, 1/5] rises to about 0.533 and crosses
    the level 1/2 near 0.1817.  The linear part's root of that level is
    1/2, outside the piece, and the sine vanishes there: that root says
    nothing about the crossing, which must not come back as the exact
    point 1/5.  At k = 2 the matrix holds the 60-digit entries within eps."""
    m = parse_map("poly [0,1/5] : x + 7/20 sin(2 pi x); poly [1/5,1] : x").build()
    with mpmath.workdps(60):
        root = mpmath.findroot(
            lambda x: x + mpmath.mpf(7) / 20 * mpmath.sin(2 * mpmath.pi * x) - 0.5, 0.18)
        oracle = {(0, 0): 2 * root + mpmath.mpf(3) / 5,
                  (0, 1): 2 * (mpmath.mpf(1) / 5 - root), (1, 1): mpmath.mpf(1)}
    lo, hi, scale = level_crossing(m.branches[0], np.array([1]), 2, F(0), F(1, 5))
    assert scale == 1 and lo[0] <= root <= hi[0]
    raw = assemble_ulam(m, 2)
    coo = raw.csr.tocoo()
    got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert set(got) == set(oracle)
    for key, v in got.items():
        assert abs(mpmath.mpf(v) - oracle[key]) <= raw.eps
    assert raw.eps < 1e-14


def test_float_brackets_hold_the_roots():
    """Every level preimage bracket of the EQ4 and LANFORD2 branches holds
    the 50-digit root and is a few ulps wide (at most 5e-15, about 24 ulps
    of 1; the Fraction bisection it replaced stopped at 1e-14)."""
    k = 256
    for text in (EQ4, LANFORD2):
        for br in parse_map(text).build().branches:
            lo, hi, scale = level_crossing(br, np.arange(k + 1), k, br.lo.lo, br.hi.hi)
            if scale != 1:
                continue  # exact roots of a linear branch
            coeffs = [_mp(c) for c in reversed(br.poly)]
            with mpmath.workdps(60):
                for j, x_lo, x_hi in zip(range(k + 1), lo.tolist(), hi.tolist()):
                    y = mpmath.mpf(j) / k
                    f_lo = mpmath.polyval(coeffs, x_lo) - y
                    f_hi = mpmath.polyval(coeffs, x_hi) - y
                    # a sign change, or an end pinned at the domain
                    assert (f_lo * f_hi <= 0 or x_lo == float(br.lo.lo)
                            or x_hi == float(br.hi.hi))
                    assert x_hi - x_lo <= 5e-15


def test_wide_breakpoint_enclosure_is_charged():
    # two linear branches meeting at d = 23/50, once exact and once given
    # only as the enclosure [0.45, 0.55]; the first branch's extension past
    # d crosses the level 1 inside that enclosure
    d = F(23, 50)

    def build(mid):
        left = Branch(Endpoint.from_rational(0), mid, (F(0), F(9, 10) / d))
        right = Branch(mid, Endpoint.from_rational(1), (-d / (1 - d), 1 / (1 - d)))
        return PiecewiseMap((left, right))

    for k in (5, 8):
        exact = assemble_ulam(build(Endpoint.from_rational(d)), k)
        fuzzy = assemble_ulam(build(Endpoint(F(0.45), F(0.55))), k)
        tol = F(exact.eps) + F(fuzzy.eps)
        diff = fuzzy.csr.toarray(), exact.csr.toarray()
        for a, b in zip(*(x.ravel().tolist() for x in diff)):
            assert abs(F(a) - F(b)) <= tol


def test_lanford2_raw_rows_sum_to_one(lanford2):
    # breakpoints of the iterate are enclosures; each row of the true matrix
    # sums to 1 and every stored entry lies within eps of the true one
    raw = assemble_ulam(lanford2, 32)
    assert raw.eps > 0.0
    for i in range(raw.k):
        row = raw.csr.data[raw.csr.indptr[i]:raw.csr.indptr[i + 1]]
        assert abs(math.fsum(row) - 1.0) <= raw.nnz_max * raw.eps


def test_map_leaving_unit_interval_rejected():
    # the second branch maps [1/2, 1] onto [1, 5/2]
    m = parse_map("poly [0,1/2] : 2x; poly [1/2,1] : 3x - 1/2").build()
    with pytest.raises(ValueError, match="leaves"):
        assemble_ulam(m, 8)


def test_markovize_keeps_stochastic_row():
    csr = sparse.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    tm = TransitionMatrix(k=2, csr=csr, eps=0.0, nnz_max=2)
    mk = markovize(tm)
    assert (mk.csr.toarray() == 0.5).all()


def test_markovize_spreads_uniformly():
    csr = sparse.csr_matrix(np.array([[0.3, 0.3, 0.3]] * 3))
    tm = TransitionMatrix(k=3, csr=csr, eps=0.05, nnz_max=3)
    mk = markovize(tm)
    row = mk.csr.toarray()[0]
    assert np.allclose(row, 1 / 3, atol=1e-15)
    assert math.fsum(row) == 1.0


def test_markovize_row_sums_one_ulp(lanford2):
    mk = markovize(assemble_ulam(lanford2, 32))
    assert (mk.row_sums() == 1.0).all()


def test_markovize_rejects_empty_row():
    csr = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    tm = TransitionMatrix(k=2, csr=csr, eps=0.0, nnz_max=1)
    with pytest.raises(ValueError):
        markovize(tm)


def test_nnz_bounds(tripling, eq6, lanford2):
    # a row meets at most ceil(sup|T'|) + 4 cells
    cases = ((tripling, 9), (eq6, 64), (lanford2, 32))
    nnz = [assemble_ulam(m, k).nnz_max for m, k in cases]
    for (m, _), n in zip(cases, nnz):
        assert n <= math.ceil(m.abs_deriv_sup.hi) + 4
    assert nnz[0] == 3 and nnz[1] <= 7 and nnz[2] <= 10


def test_quadratic_eps_from_preimage_brackets(eq4):
    # only the bisection brackets of the level preimages are charged
    assert assemble_ulam(eq4, 64).eps < 1e-10


def test_column_sums_bounded(eq4):
    mk = markovize(assemble_ulam(eq4, 64))
    cols = np.asarray(mk.csr.sum(axis=0)).ravel()
    assert (cols >= 0).all()
    assert (cols <= mk.nnz_max).all()


def test_dump_format(tmp_path, tripling):
    from rigdens.ulam import dump_matrix

    mk = markovize(assemble_ulam(tripling, 3))
    out = tmp_path / "m.txt"
    dump_matrix(mk, str(out))
    lines = out.read_text().splitlines()
    header = lines[0].split()
    assert header[0] == "3" and len(header) == 3
    assert len(lines) == 1 + mk.csr.nnz
    row, col, val, err = lines[1].split()
    assert int(row) == 0 and int(col) in (0, 1, 2)
    assert abs(float(val) - 1 / 3) < 1e-12


def _markovize_row_loop(raw):
    """The row-by-row reference form of markovize."""
    csr = raw.csr.tocsr(copy=True)
    extra = 0.0
    for i in range(raw.k):
        s, e = csr.indptr[i], csr.indptr[i + 1]
        row = csr.data[s:e]
        row += (1.0 - math.fsum(row)) / len(row)
        if np.any(row < 0.0):
            extra = max(extra, -row[row < 0.0].sum())
            row[row < 0.0] = 0.0
        residue = 1.0 - math.fsum(row)
        jmax = int(np.argmax(row))
        row[jmax] += residue
        final = 1.0 - math.fsum(row)
        if final != 0.0:
            row[jmax] += final
        extra = max(extra, abs(residue))
        csr.data[s:e] = row
    return csr, raw.eps + extra


def test_markovize_matches_row_loop_reference(eq4, lanford2):
    """Bit-identical to the row loop: data, eps and row sums."""
    rng = np.random.default_rng(12)
    # rows summing well above 1, so the spread drives entries negative
    hostile = np.where(rng.random((40, 40)) < 0.2,
                       rng.uniform(-0.05, 0.4, size=(40, 40)), 0.0)
    np.fill_diagonal(hostile, 0.7)  # every row nonempty
    hostile[3, 5] = 0.7  # a tie for the largest entry
    raws = [assemble_ulam(eq4, 64), assemble_ulam(lanford2, 32),
            TransitionMatrix(k=40, csr=sparse.csr_matrix(hostile), eps=1e-9,
                             nnz_max=int((hostile != 0).sum(axis=1).max()))]
    for raw in raws:
        mk = markovize(raw)
        csr, eps = _markovize_row_loop(raw)
        assert mk.csr.data.tobytes() == csr.data.tobytes()
        assert np.array_equal(mk.csr.indices, csr.indices)
        assert mk.eps == eps
        assert (mk.row_sums() == 1.0).all()
        assert mk.row_sums().tolist() == [math.fsum(csr.data[s:e]) for s, e
                                          in zip(csr.indptr, csr.indptr[1:])]
