"""Sparse CSR matrices and sparse LU.

Matrices are scipy CSR in canonical form (sorted column indices, no
duplicates); build_csr is the one constructor assembly code should use,
because summing duplicates in a fixed order keeps runs bitwise
reproducible.  The LU path is SuperLU with partial pivoting and a
minimum-degree column ordering on the symmetrized pattern.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import SuperLU, splu

from .errors import SingularMatrixError

# A pivot this small relative to the largest pivot is treated as singular.
PIVOT_REL_TOL = 1e-12


def build_csr(n_rows: int, n_cols: int, rows, cols, vals) -> csr_matrix:
    """Assemble COO triplets into canonical CSR, summing duplicates."""
    from scipy.sparse import coo_matrix

    A = coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n_rows, n_cols),
    ).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def lu_factor(A) -> SuperLU:
    """Factor a square sparse matrix with partial pivoting; return scipy's SuperLU.

    Uses a minimum-degree ordering of A^T + A for fill reduction.  A pivot
    below 1e-12 of the largest is reported as singular rather than being
    used.  The SuperLU object is the one copy of the factors: it holds
    Pr A Pc = L U (perm_r, perm_c, L, U) and does the triangular solves.
    A may be nonsymmetric: the same factors serve the M-matrix
    certificate, which reads a singular factorization as "not an
    M-matrix", and the eigensolver, which reports it as a solver failure.
    """
    A = csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    try:
        factors = splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    pivots = np.abs(factors.U.diagonal())
    if pivots.min() <= PIVOT_REL_TOL * pivots.max():
        raise SingularMatrixError(
            f"numerically singular: pivot ratio {pivots.min() / pivots.max():.3e}"
        )
    return factors


def solve(factors: SuperLU, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a real right-hand side with the factors of lu_factor."""
    b = np.asarray(b)
    if b.shape[0] != factors.shape[0]:
        raise ValueError("right-hand side has wrong length")
    return factors.solve(b.astype(np.float64))
