"""Build and read the package's CSR records in tests."""

import numpy as np

from rigdens._csr import CSR


def dense_csr(a) -> CSR:
    """The CSR record of a dense 2-D array: its nonzero entries in
    row-major order, as scipy.sparse.csr_matrix(a) stores them."""
    a = np.asarray(a)
    rows, cols = np.nonzero(a)
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=a.shape[0]))]
    return CSR(a[rows, cols], cols, indptr, a.shape)


def entries(csr: CSR) -> dict:
    """{(i, j): value} of the stored entries."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return {(int(i), int(j)): v for i, j, v in zip(rows, csr.indices, csr.data)}
