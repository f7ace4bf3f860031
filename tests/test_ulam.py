"""Assembly correctness against exact rational and 50-digit preimage oracles."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy import sparse

from tests.conftest import EQ4, EQ7

from rigdens.cli import parse_map
from rigdens.maps import Branch, Endpoint, PiecewiseMap
from rigdens.ulam import (
    TransitionMatrix,
    assemble_row,
    assemble_ulam,
    markovize,
    nnz_bound,
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
    assert nnz_bound(assemble_ulam(tripling, 9), tripling) == 3
    assert nnz_bound(assemble_ulam(eq6, 64), eq6) <= 7
    mk = assemble_ulam(lanford2, 32)
    assert nnz_bound(mk, lanford2) <= 10


def test_nnz_bound_raises_above_structural_cap(tripling):
    # a dense 8x8 row exceeds sup|T'| + 4 = 7 for the tripling map
    tm = TransitionMatrix(k=8, csr=sparse.csr_matrix(np.full((8, 8), 1 / 8)),
                          eps=0.0, nnz_max=8)
    with pytest.raises(RuntimeError, match="exceeds structural bound 7"):
        nnz_bound(tm, tripling)


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
