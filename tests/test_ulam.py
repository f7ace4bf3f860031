"""Assembly correctness against exact rational preimage oracles."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import sparse

from rigdens.cli import parse_map
from rigdens.ulam import (
    AssemblyConfig,
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
    vals, errs = assemble_row(m, 0, 6, AssemblyConfig())
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
    mk = markovize(assemble_ulam(lanford2, 32, AssemblyConfig(nu=F(1, 10**8))))
    assert (mk.row_sums() == 1.0).all()


def test_markovize_rejects_empty_row():
    csr = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    tm = TransitionMatrix(k=2, csr=csr, eps=0.0, nnz_max=1)
    with pytest.raises(ValueError):
        markovize(tm)


def test_nnz_bounds(tripling, eq6, lanford2):
    assert nnz_bound(assemble_ulam(tripling, 9), tripling) == 3
    assert nnz_bound(assemble_ulam(eq6, 64), eq6) <= 7
    mk = assemble_ulam(lanford2, 32, AssemblyConfig(nu=F(1, 10**8)))
    assert nnz_bound(mk, lanford2) <= 10


def test_nnz_bound_raises_above_structural_cap(tripling):
    # a dense 8x8 row exceeds sup|T'| + 4 = 7 for the tripling map
    tm = TransitionMatrix(k=8, csr=sparse.csr_matrix(np.full((8, 8), 1 / 8)),
                          eps=0.0, nnz_max=8)
    with pytest.raises(RuntimeError, match="exceeds structural bound 7"):
        nnz_bound(tm, tripling)


def test_refinement_monotonicity(eq4):
    cfg1 = AssemblyConfig(nu=F(1, 10**6))
    cfg2 = AssemblyConfig(nu=F(1, 2 * 10**6))
    raw1 = assemble_ulam(eq4, 16, cfg1)
    raw2 = assemble_ulam(eq4, 16, cfg2)
    assert raw2.eps <= raw1.eps


def test_column_sums_bounded(eq4):
    mk = markovize(assemble_ulam(eq4, 64))
    cols = np.asarray(mk.csr.sum(axis=0)).ravel()
    assert (cols >= 0).all()
    assert (cols <= mk.nnz_max).all()


def test_depth_cap_raises(eq4):
    cfg = AssemblyConfig(nu=F(1, 10**12), max_depth=2)
    with pytest.raises(RuntimeError):
        assemble_row(eq4, 0, 16, cfg)


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
