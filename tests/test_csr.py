"""The CSR record and its kernels against scipy.sparse's own operators, bit
for bit, and the import that reaches the kernels without scipy.sparse."""

import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rigdens import _csr
from rigdens._csr import CSR
from rigdens.hatbasis import assemble_linearized
from rigdens.ulam import assemble_ulam, markovize

from tests.csr_records import dense_csr

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_of(a: CSR):
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def assert_same_csr(got: CSR, want):
    """got has want's shape, index arrays (values) and data bits."""
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert bits(got.data) == bits(want.data)


@pytest.fixture(params=[False, True], ids=["int32", "int64"])
def index64(request, monkeypatch):
    """With True, the int32 range reads [-1, 1] to the records, so every
    matrix of two or more rows or columns takes int64 indices (as a matrix
    past 2^31 would) and the kernels run on them."""
    if request.param:
        monkeypatch.setattr(_csr, "_INT32", types.SimpleNamespace(min=-1, max=1))
    return request.param


def check_kernels(a: CSR, index64: bool):
    """Every kernel on a (float64) and its float32 copy, against scipy."""
    rng = np.random.default_rng(a.nnz)
    dtype = np.int64 if index64 else np.int32
    s = scipy_of(a)
    assert a.indices.dtype == a.indptr.dtype == dtype

    at = _csr.transpose(a)
    assert at.indices.dtype == dtype
    assert_same_csr(at, s.T.tocsr())
    assert bits(_csr.row_sums(at)) == bits(np.asarray(s.T.tocsr().sum(axis=1)).ravel())
    x = rng.random(a.shape[1])
    assert bits(_csr.matvec(a, x)) == bits(s @ x)
    assert bits(a.toarray()) == bits(s.toarray())

    a32 = replace(a, data=a.data.astype(np.float32))
    s32 = s.astype(np.float32)
    v = rng.standard_normal((a.shape[1], 7)).astype(np.float32)
    v[rng.random(v.shape) < 0.5] = 0.0
    out = np.full((a.shape[0], 7), np.nan, np.float32)
    assert _csr.matvecs(a32, v, out) is out
    assert bits(out) == bits(s32 @ v)
    # a sparse float32 block, and the product of the product
    b = CSR(v[v != 0], np.nonzero(v)[1],
            np.r_[0, np.cumsum((v != 0).sum(axis=1))], v.shape)
    sb = scipy_of(b)
    assert bits(b.toarray()) == bits(v)
    once = _csr.matmat(a32, b)
    assert once.indices.dtype == dtype
    assert_same_csr(once, s32 @ sb)
    if a.shape[0] == a.shape[1]:
        # a right operand whose rows hold their columns in the kernel's order
        assert_same_csr(_csr.matmat(a32, once), s32 @ (s32 @ sb))
    dense = np.full(once.shape, 7.0, np.float32)
    assert once.toarray(out=dense) is dense
    assert bits(dense) == bits((s32 @ sb).toarray())


@pytest.mark.parametrize("name,k", [("eq6", 64), ("sinmap", 64),
                                    ("lanford2", 32)])
def test_kernels_match_scipy_on_paper_matrices(name, k, index64, request):
    m = request.getfixturevalue(name)
    build = assemble_linearized if name == "sinmap" else assemble_ulam
    for matrix in (build(m, k), markovize(build(m, k))):
        check_kernels(matrix.csr, index64)


@st.composite
def _dense_pairs(draw):
    """Dense arrays a (m x n) and b (n x p) of a few dyadic values, mostly
    zeros, so that sums of products often cancel to an exact 0."""
    m, n, p = (draw(st.integers(1, 9)) for _ in range(3))
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -2.0])

    def dense(rows, cols):
        size = rows * cols
        return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(rows, cols)

    return dense(m, n), dense(n, p)


@settings(max_examples=150, deadline=None)
@given(pair=_dense_pairs(), index64=st.booleans())
def test_kernels_match_scipy_on_drawn_matrices(pair, index64):
    # a 1 x 1 matrix keeps int32 indices under the narrowed range
    index64 = index64 and max(pair[0].shape) > 1
    limit = types.SimpleNamespace(min=-1, max=1) if index64 else _csr._INT32
    saved, _csr._INT32 = _csr._INT32, limit
    try:
        a, b = map(dense_csr, pair)
        check_kernels(a, index64)
        for dtype in (np.float32, np.float64):
            a_, b_ = (replace(x, data=x.data.astype(dtype)) for x in (a, b))
            assert_same_csr(_csr.matmat(a_, b_), scipy_of(a_) @ scipy_of(b_))
    finally:
        _csr._INT32 = saved


def test_matmat_drops_cancelled_and_structural_zeros():
    # row 0 of a meets b's two rows, whose entries cancel in column 0: the
    # kernel sizes the result for it and stores none of it
    a = dense_csr(np.array([[1.0, 1.0], [0.0, 2.0]], np.float32))
    b = dense_csr(np.array([[1.0, 0.5], [-1.0, 0.0]], np.float32))
    got = _csr.matmat(a, b)
    want = scipy_of(a) @ scipy_of(b)
    assert_same_csr(got, want)
    assert got.nnz == 2 and 0 not in got.data
    assert bits(got.toarray()) == bits(np.float32([[0, 0.5], [-2, 0]]))
    # no stored pair meets at all
    c = dense_csr(np.array([[0.0, 1.0], [0.0, 0.0]], np.float32))
    d = dense_csr(np.array([[1.0, 1.0], [0.0, 0.0]], np.float32))
    empty = _csr.matmat(c, d)
    assert_same_csr(empty, scipy_of(c) @ scipy_of(d))
    assert empty.nnz == 0 and empty.shape == (2, 2)


def test_record_index_dtype_is_int32_while_its_size_fits(monkeypatch):
    """int32 while rows, columns and the stored count fit int32, int64
    otherwise, whatever dtype the arrays come in."""
    data = np.ones(2)
    for indices, indptr, shape, dtype in (
            (np.int64([0, 1]), np.int64([0, 1, 2]), (2, 2), np.int32),
            (np.int32([0, 1]), np.int64([0, 2, 2]), (2, 3), np.int32),
            (np.int64([0, 2**31]), np.int64([0, 2, 2]), (2, 2**31 + 1),
             np.int64)):
        got = CSR(data, indices, indptr, shape)
        assert got.indices.dtype == got.indptr.dtype == dtype
    # a 1 x 1 matrix storing two entries: under an int32 range of [-1, 1]
    # its shape fits and its stored count does not
    monkeypatch.setattr(_csr, "_INT32", types.SimpleNamespace(min=-1, max=1))
    got = CSR(data, np.int32([0, 0]), np.int32([0, 2]), (1, 1))
    assert got.indices.dtype == got.indptr.dtype == np.int64
    assert CSR(data[:1], [0], [0, 1], (1, 1)).indptr.dtype == np.int32


@pytest.mark.parametrize("fields", [
    dict(data=np.ones(2), indices=[0], indptr=[0, 2], shape=(1, 2)),
    dict(data=np.ones(2), indices=[0, 1], indptr=[0, 1], shape=(1, 2)),
    dict(data=np.ones(2), indices=[0, 1], indptr=[1, 2], shape=(1, 2)),
    dict(data=np.ones(2), indices=[0, 1], indptr=[0, 2], shape=(2, 2)),
    dict(data=np.ones((1, 2)), indices=[0, 1], indptr=[0, 2], shape=(1, 2)),
])
def test_record_refuses_inconsistent_arrays(fields):
    with pytest.raises(ValueError, match="CSR needs"):
        CSR(**fields)


def test_kernels_refuse_blocks_they_cannot_write():
    a = dense_csr(np.eye(3, dtype=np.float32))
    v = np.ones((3, 2), np.float32)
    for out in (np.empty((3, 1), np.float32), np.empty((3, 2)),
                np.empty((2, 3), np.float32).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            _csr.matvecs(a, v, out)
    for out in (np.empty((3, 1), np.float32), np.empty((3, 3)),
                np.empty((3, 3), np.float32).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            a.toarray(out=out)
    with pytest.raises(ValueError, match="column count"):
        _csr.matvec(a, np.ones(2))
    with pytest.raises(ValueError, match="as many rows"):
        _csr.matmat(a, dense_csr(np.ones((2, 3), np.float32)))


def test_loader_reuses_a_loaded_extension(monkeypatch):
    loaded = types.ModuleType(_csr._EXTENSION)
    monkeypatch.setitem(sys.modules, _csr._EXTENSION, loaded)
    assert _csr._load_sparsetools() is loaded


def test_loader_without_the_extension_raises(monkeypatch):
    monkeypatch.delitem(sys.modules, _csr._EXTENSION, raising=False)
    monkeypatch.setattr("importlib.util.find_spec", lambda name: None)
    with pytest.raises(ImportError, match="_sparsetools"):
        _csr._load_sparsetools()


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_sparse_unloaded():
    # the package and its CLI reach the kernels without running scipy's or
    # scipy.sparse's __init__, and leave no entry for scipy.sparse to reuse
    out = _fresh_python(
        "import sys, rigdens, rigdens.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.strip() == "[]"


def test_scipy_sparse_imports_and_multiplies_after_the_package():
    out = _fresh_python(
        "import numpy as np, rigdens\n"
        "from rigdens import _csr\n"
        "import scipy.sparse as sp\n"
        "a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))\n"
        "x = np.array([1.0, 1.0])\n"
        "own = _csr.matvec(_csr.CSR(a.data, a.indices, a.indptr, a.shape), x)\n"
        "print((a @ a @ x).tolist(), own.tolist(), sp._sparsetools.__name__)")
    assert out.strip() == "[9.0, 9.0] [3.0, 3.0] scipy.sparse._sparsetools"
