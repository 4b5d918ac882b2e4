"""Tests for the sparse LU and Hessenberg eigenvalue kernels."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_matrix, csr_matrix, diags, random as sparse_random

from eigenfem import SingularMatrixError, build_csr, lu_factor, solve

from oracles import hessenberg_eigen, hessenberg_eigs_qr


def tridiag(n, lo, di, up):
    return diags([np.full(n - 1, lo), np.full(n, di), np.full(n - 1, up)],
                 [-1, 0, 1]).tocsr()


def test_build_csr_sums_duplicates():
    A = build_csr(3, 3, [0, 0, 1, 2], [0, 0, 1, 0], [1.0, 2.0, 5.0, -1.0])
    D = A.toarray()
    assert D[0, 0] == 3.0 and D[1, 1] == 5.0 and D[2, 0] == -1.0
    A.check_format(full_check=True)
    assert A.has_canonical_format


def test_lu_solve_tridiagonal():
    n = 50
    A = tridiag(n, -1.0, 2.0, -1.0)
    f = lu_factor(A)
    rng = np.random.default_rng(23)
    for _ in range(5):
        b = rng.standard_normal(n)
        x = solve(f, b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        # dense oracle
        xd = np.linalg.solve(A.toarray(), b)
        assert np.allclose(x, xd, atol=1e-11)


def test_lu_solve_identity():
    A = csr_matrix(np.eye(7))
    f = lu_factor(A)
    b = np.arange(7.0)
    assert np.allclose(solve(f, b), b)


def test_lu_rejects_singular():
    A = csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        lu_factor(A)
    B = csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))  # zero row
    with pytest.raises(SingularMatrixError):
        lu_factor(B)


def test_lu_factor_reconstruction():
    # Pr A Pc = L U with the permutations and factors held by scipy's SuperLU
    rng = np.random.default_rng(29)
    n = 30
    A = sparse_random(n, n, density=0.2, random_state=29, format="csr")
    A = A + diags(np.full(n, 5.0))
    f = lu_factor(csr_matrix(A))
    Pr = csc_matrix((np.ones(n), (f.perm_r, np.arange(n))), shape=(n, n))
    Pc = csc_matrix((np.ones(n), (np.arange(n), f.perm_c)), shape=(n, n))
    lhs = (Pr @ A @ Pc).toarray()
    rhs = (f.L @ f.U).toarray()
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(A.toarray()).max()
    assert np.abs(f.U.diagonal()).min() > 0


def test_hessenberg_eigen_diagonal():
    H = np.diag([3.0, 1.0, 2.0])
    w, T, Z = hessenberg_eigen(H)
    assert np.allclose(sorted(w.real), [1.0, 2.0, 3.0])
    assert np.abs(w.imag).max() == 0.0


def test_hessenberg_eigen_rotation_pair():
    # companion-style matrix with eigenvalues +-i
    H = np.array([[0.0, -1.0], [1.0, 0.0]])
    w, _, _ = hessenberg_eigen(H)
    assert sorted(np.round(w.imag, 12)) == [-1.0, 1.0]
    assert np.abs(w.real).max() <= 1e-12


def test_hessenberg_eigen_backward_error():
    # Z^T H Z = T must hold to near machine precision
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(5, 40))
        H = np.triu(rng.standard_normal((n, n)), k=-1)
        w, T, Z = hessenberg_eigen(H)
        err = np.linalg.norm(Z.T @ H @ Z - T) / max(np.linalg.norm(H), 1e-300)
        assert err <= 1e-10
        orth = np.linalg.norm(Z.T @ Z - np.eye(n))
        assert orth <= 1e-12


def test_hessenberg_eigen_vs_independent_qr():
    rng = np.random.default_rng(37)
    for trial in range(8):
        n = 20
        H = np.triu(rng.standard_normal((n, n)), k=-1)
        w, _, _ = hessenberg_eigen(H)
        w_ref = hessenberg_eigs_qr(H)
        a = np.sort_complex(np.round(w, 10))
        b = np.sort_complex(np.round(w_ref, 10))
        scale = np.abs(w).max()
        # greedy matching: each reference value must be hit once
        used = np.zeros(n, dtype=bool)
        for val in a:
            dists = np.abs(b - val)
            dists[used] = np.inf
            i = int(np.argmin(dists))
            assert dists[i] <= 1e-8 * max(scale, 1.0)
            used[i] = True


def test_hessenberg_eigen_orthogonal_similarity_invariance():
    rng = np.random.default_rng(41)
    n = 15
    H = np.triu(rng.standard_normal((n, n)), k=-1)
    w1, _, _ = hessenberg_eigen(H)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q.T @ H @ Q
    Hm = scipy.linalg.hessenberg(M)
    w2, _, _ = hessenberg_eigen(Hm)
    assert np.allclose(np.sort_complex(np.round(w1, 9)),
                       np.sort_complex(np.round(w2, 9)), atol=1e-8)


def test_hessenberg_eigen_rejects_large():
    with pytest.raises(ValueError):
        hessenberg_eigen(np.eye(500))

