"""Compressed sparse row matrices, multiplied by scipy's compiled kernels.

The pipeline reads its discretized transfer operator only as CSR arrays
and a few products, so the matrix is a plain record (CSR) and the
products are direct calls to the C++ kernels of scipy's
scipy.sparse._sparsetools extension.  The extension is loaded by itself
(_load_sparsetools): importing the scipy.sparse package would run
scipy's array-API layer, which costs more time and memory than numpy's
own import.

Each function passes its kernel the arguments that the scipy.sparse
operator named in its docstring passes, in the same order, so its result
has that operator's bits: the order sets them, and the index width does
not.  A record's index width is its own, decided once from its size
(_index_dtype).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

_EXTENSION = "scipy.sparse._sparsetools"
_INT32 = np.iinfo(np.int32)


def _load_sparsetools():
    """The extension module of _EXTENSION: the one in sys.modules where
    scipy.sparse has loaded it, else loaded from scipy's package directory
    without running scipy's or scipy.sparse's __init__.py."""
    loaded = sys.modules.get(_EXTENSION)
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "sparse")
            for d in (scipy.submodule_search_locations or [])] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(_EXTENSION, dirs)
    if spec is None:
        raise ImportError(f"rigdens needs scipy's compiled {_EXTENSION} "
                          f"extension, and found none in {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules; leaving the
    # entry to scipy.sparse lets a later import of scipy.sparse load it as
    # its submodule, attribute included
    sys.modules.pop(_EXTENSION, None)
    return module


_kernels = _load_sparsetools()


def _index_dtype(*sizes: int):
    """int32 while every size (rows, columns, stored entries) fits it,
    int64 otherwise: each index and indptr value is at most one of them."""
    return np.int32 if max(sizes, default=0) <= _INT32.max else np.int64


@dataclass(frozen=True)
class CSR:
    """An m x n matrix in compressed sparse row form: row i stores
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:
    indptr[i + 1]].  indices and indptr are cast to the one index dtype
    of the matrix's size (_index_dtype); the lengths are checked, as scipy
    checks them, and the indices are trusted."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        data, indices, indptr = map(np.asarray, (self.data, self.indices,
                                                 self.indptr))
        if (len(shape) != 2 or min(shape) < 0
                or not data.ndim == indices.ndim == indptr.ndim == 1
                or len(indptr) != shape[0] + 1 or indptr[0] != 0
                or not len(data) == len(indices) == indptr[-1]):
            raise ValueError("CSR needs 1-D data and indices of length "
                             "indptr[-1] and an indptr of rows + 1 entries "
                             "from 0")
        dtype = _index_dtype(*shape, len(data))
        indices, indptr = (x.astype(dtype, copy=False) for x in (indices, indptr))
        for name, value in (("data", data), ("indices", indices),
                            ("indptr", indptr), ("shape", shape)):
            object.__setattr__(self, name, value)

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return len(self.data)

    def toarray(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense matrix (csr_todense, as scipy's toarray): a new array,
        or out, a C-contiguous array of the matrix's shape and dtype, zeroed
        first."""
        if out is None:
            out = np.zeros(self.shape, dtype=self.data.dtype)
        elif (out.shape != self.shape or out.dtype != self.data.dtype
              or not out.flags.c_contiguous):
            raise ValueError("toarray needs a C-contiguous out of the "
                             "matrix's shape and dtype")
        else:
            out.fill(0)
        _kernels.csr_todense(*self.shape, self.indptr, self.indices,
                             self.data, out)
        return out


def transpose(a: CSR) -> CSR:
    """a transposed, in CSR (csr_tocsc, as scipy's a.T.tocsr()); each row
    lists its columns in increasing order."""
    m, n = a.shape
    indptr = np.empty(n + 1, dtype=a.indptr.dtype)
    indices, data = np.empty_like(a.indices), np.empty_like(a.data)
    _kernels.csr_tocsc(m, n, a.indptr, a.indices, a.data, indptr, indices,
                       data)
    return CSR(data, indices, indptr, (n, m))


def row_sums(a: CSR) -> np.ndarray:
    """The float sum of each row of a float matrix, 0 for an empty one
    (np.add.reduceat, as scipy's a.sum(axis=1))."""
    out = np.zeros(a.shape[0], dtype=a.data.dtype)
    rows = np.flatnonzero(np.diff(a.indptr))
    out[rows] = np.add.reduceat(a.data, a.indptr[rows].astype(np.intp))
    return out


def matvec(a: CSR, x: np.ndarray) -> np.ndarray:
    """a @ x for a vector x (csr_matvec into a zeroed result, as scipy)."""
    if np.shape(x) != (a.shape[1],):
        raise ValueError("matvec needs a vector of the matrix's column count")
    out = np.zeros(a.shape[0], dtype=np.result_type(a.data, x))
    _kernels.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x, out)
    return out


def matvecs(a: CSR, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ v for a dense block v, written into out (csr_matvecs, which
    adds into a zeroed target, as scipy): v and out C-contiguous blocks of
    a's dtype, out of the product's shape.  ValueError otherwise, since
    the kernel trusts the sizes, and a copy made to convert either array
    would take the product with it."""
    n_row, n_col = a.shape
    width = v.shape[1]
    if (v.shape[0] != n_col or out.shape != (n_row, width)
            or not v.flags.c_contiguous or not out.flags.c_contiguous
            or not out.dtype == v.dtype == a.data.dtype):
        raise ValueError("matvecs needs C-contiguous blocks of the matrix's "
                         "dtype and the product's shape")
    out.fill(0)
    _kernels.csr_matvecs(n_row, n_col, width, a.indptr, a.indices, a.data,
                         v.ravel(), out.ravel())
    return out


def matmat(a: CSR, b: CSR) -> CSR:
    """a @ b (csr_matmat_maxnnz, then csr_matmat, as scipy): entries whose
    sum is an exact zero are not stored, and a row's columns come in the
    kernel's order, not sorted."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("matmat needs as many rows in b as columns in a")
    m, n = a.shape[0], b.shape[1]
    arrays = (a.indptr, a.indices, b.indptr, b.indices)
    sizes = (*a.shape, n, a.nnz, b.nnz)
    size = _kernels.csr_matmat_maxnnz(m, n, *(
        x.astype(_index_dtype(*sizes), copy=False) for x in arrays))
    dtype = _index_dtype(*sizes, size)
    a_ptr, a_ind, b_ptr, b_ind = (x.astype(dtype, copy=False) for x in arrays)
    indptr = np.empty(m + 1, dtype=dtype)
    indices = np.empty(size, dtype=dtype)
    data = np.empty(size, dtype=np.result_type(a.data, b.data))
    _kernels.csr_matmat(m, n, a_ptr, a_ind, a.data, b_ptr, b_ind, b.data,
                        indptr, indices, data)
    return CSR(data[:indptr[-1]], indices[:indptr[-1]], indptr, (m, n))
