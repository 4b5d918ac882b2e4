"""Structural certificates for assembled stiffness matrices.

A Z-matrix (nonpositive off-diagonals) is a nonsingular M-matrix iff some
x > 0 has A x > 0 (Berman & Plemmons 1994, ch. 6, I27); if it is also
irreducible, its inverse is entrywise strictly positive and the smallest
generalized eigenvalue against a positive-definite mass matrix is real,
simple, and has a positive eigenvector.  This module checks those
hypotheses directly on the sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import SuperLU

from .errors import SingularMatrixError
from .sparse_linalg import lu_factor, solve

# Entries within this relative tolerance of zero are treated as zero both
# for sign checks and for the sparsity pattern used by irreducibility.
ZERO_REL_TOL = 1e-14


def _as_csr(A) -> csr_matrix:
    if not issparse(A):
        raise ValueError(f"expected a scipy sparse matrix, got {type(A).__name__}")
    # Copy so canonicalization (and any downstream in-place structure
    # edits) can never mutate the caller's matrix.
    M = csr_matrix(A, copy=True)
    M.sum_duplicates()
    M.sort_indices()
    return M


def _z_violation(M: csr_matrix) -> tuple[int, int, float] | None:
    """First entry in row-major order that breaks the Z-matrix sign pattern.

    Off-diagonal entries must be <= 0 and diagonal entries >= 0, up to a
    relative tolerance of 1e-14 times the largest magnitude entry (exact
    zeros from cancellation are accepted).
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    tol = ZERO_REL_TOL * (float(np.abs(M.data).max()) if M.nnz else 0.0)
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    bad = np.flatnonzero(np.where(rows == M.indices, M.data < -tol, M.data > tol))
    if bad.size == 0:
        return None
    # canonical CSR stores entries in row-major order
    p = bad[0]
    return int(rows[p]), int(M.indices[p]), float(M.data[p])


def _strong_components(M: csr_matrix) -> int:
    """Strongly connected components of the sparsity pattern.

    The directed graph has an arc i -> j whenever |a_ij| exceeds the zero
    tolerance; the matrix is irreducible iff this is 1.  A 1x1 matrix is
    irreducible by convention.
    """
    if M.shape[0] == 1:
        return 1
    tol = ZERO_REL_TOL * (float(np.abs(M.data).max()) if M.nnz else 0.0)
    mask = np.abs(M.data) > tol
    # Copy the index arrays: eliminate_zeros() edits them in place and the
    # constructor would otherwise alias M's structure.
    pattern = csr_matrix((mask.astype(np.int8), M.indices.copy(), M.indptr.copy()),
                         shape=M.shape)
    pattern.eliminate_zeros()
    return int(connected_components(pattern, directed=True, connection="strong")[0])


def _semipositive(M: csr_matrix, factors: SuperLU | None) -> bool:
    """Whether x = A^{-1} 1 is positive with A x > 0 (singular A: False).

    fl(A x)_i must exceed (m + 2) eps (|A| x)_i, m the largest row count,
    which bounds the rounding error of the product (Higham 2002, ch. 3).
    """
    n = M.shape[0]
    if n == 0:
        return True
    if factors is None:
        try:
            factors = lu_factor(M)
        except SingularMatrixError:
            return False
    x = solve(factors, np.ones(n))
    if not np.all(x > 0.0):
        return False
    gamma = (np.diff(M.indptr).max() + 2) * np.finfo(np.float64).eps
    return bool(np.all(M @ x > gamma * (abs(M) @ x)))


@dataclass(frozen=True)
class MatrixCertificate:
    """Verdict of the direct M-matrix check on an assembled matrix."""

    is_z_matrix: bool
    z_violation: tuple[int, int, float] | None
    is_irreducible: bool
    n_strong_components: int
    semipositive: bool | None   # None when not a Z-matrix: the test proves nothing then
    is_m_matrix: bool
    method: str

    @property
    def certified_irreducible_m_matrix(self) -> bool:
        return self.is_m_matrix and self.is_irreducible


def m_matrix_certificate(A, factors: SuperLU | None = None) -> MatrixCertificate:
    """Certify that A is a (possibly irreducible) nonsingular M-matrix.

    The test is: Z-matrix sign pattern, then semipositivity at
    x = A^{-1} 1, solved with the given LU factors of A or, when none are
    given, with a factorization made here.  Irreducibility is reported
    separately so that a reducible M-matrix is still recognized as such.
    """
    M = _as_csr(A)
    violation = _z_violation(M)
    n_components = _strong_components(M)
    semipositive = _semipositive(M, factors) if violation is None else None
    return MatrixCertificate(
        is_z_matrix=violation is None,
        z_violation=violation,
        is_irreducible=n_components == 1,
        n_strong_components=n_components,
        semipositive=semipositive,
        is_m_matrix=bool(semipositive),
        method="Z-matrix sign pattern + semipositivity (x = A^-1 1 > 0, A x > 0)",
    )
