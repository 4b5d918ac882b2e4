"""Tests for Z-matrix / irreducibility / M-matrix certificates and the
Perron oracle."""

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, diags

from eigenfem import (CATALOG_NAMES, SingularMatrixError, assemble, catalog,
                      generate_structured, lu_factor, m_matrix_certificate,
                      solve_smallest)

from oracles import dense_m_matrix_oracle, loop_z_matrix_check, perron_oracle


def laplace_system(J, kind="mesh45"):
    m = generate_structured(kind, J)
    return assemble(m, catalog("laplace"))


def test_z_check_five_point_stencil():
    s = laplace_system(6)
    cert = m_matrix_certificate(s.A)
    assert cert.is_z_matrix and cert.z_violation is None


def test_z_check_flags_positive_offdiagonal():
    A = csr_matrix(np.array([[2.0, 0.5], [-1.0, 2.0]]))
    cert = m_matrix_certificate(A)
    assert not cert.is_z_matrix
    assert cert.z_violation == (0, 1, 0.5)


def test_z_check_flags_negative_diagonal():
    A = csr_matrix(np.array([[-2.0, -0.5], [-1.0, 2.0]]))
    cert = m_matrix_certificate(A)
    assert not cert.is_z_matrix
    assert cert.z_violation[0] == 0 and cert.z_violation[1] == 0


def test_z_check_tolerates_roundoff():
    # tiny positive off-diagonals from cancellation are accepted
    A = csr_matrix(np.array([[1.0, 1e-16], [-0.5, 1.0]]))
    assert m_matrix_certificate(A).is_z_matrix


def test_z_check_does_not_mutate_input():
    s = laplace_system(5)
    before = s.A.toarray().copy()
    m_matrix_certificate(s.A)
    assert np.array_equal(s.A.toarray(), before)


@pytest.mark.parametrize("seed", range(8))
def test_z_check_matches_loop_oracle(seed):
    # flip the signs of a few seeded entries, and on odd seeds of one
    # diagonal entry; compare verdict and the first violation in row-major
    # order with the entry-by-entry loop
    rng = np.random.default_rng(seed)
    A = laplace_system(int(rng.integers(5, 12)), ("mesh45", "mesh135")[seed % 2]).A.copy()
    A.data[rng.choice(A.nnz, size=int(rng.integers(0, 4)), replace=False)] *= -1.0
    if seed % 2:
        diag = A.diagonal()
        diag[int(rng.integers(A.shape[0]))] *= -1.0
        A.setdiag(diag)
    cert = m_matrix_certificate(A)
    assert (cert.is_z_matrix, cert.z_violation) == loop_z_matrix_check(A)
    assert seed % 2 == 0 or not cert.is_z_matrix


def test_irreducibility_stencil():
    s = laplace_system(6)
    cert = m_matrix_certificate(s.A)
    assert cert.is_irreducible and cert.n_strong_components == 1


def test_irreducibility_block_diagonal():
    B1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    A = block_diag([B1, B1]).tocsr()
    cert = m_matrix_certificate(A)
    assert not cert.is_irreducible
    assert cert.n_strong_components == 2


def test_irreducibility_one_by_one():
    assert m_matrix_certificate(csr_matrix(np.array([[3.0]]))).is_irreducible


def test_irreducibility_directed():
    # strictly upper triangular coupling is NOT irreducible (no back arc)
    A = csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert not m_matrix_certificate(A).is_irreducible


def test_certificate_stieltjes():
    s = laplace_system(7)
    cert = m_matrix_certificate(s.A)
    assert cert.is_z_matrix and cert.is_irreducible
    assert cert.semipositive and cert.is_m_matrix
    assert cert.certified_irreducible_m_matrix


def test_certificate_fails_on_mesh135_anisotropic():
    # D = [[10,9],[9,10]] on mesh135 produces positive off-diagonals
    m = generate_structured("mesh135", 7)
    s = assemble(m, catalog("ex5_1"))
    cert = m_matrix_certificate(s.A)
    assert not cert.is_z_matrix
    assert cert.z_violation is not None
    assert not cert.certified_irreducible_m_matrix


def test_certificate_negative_identity():
    cert = m_matrix_certificate(csr_matrix(-np.eye(4)))
    assert not cert.semipositive
    assert not cert.is_m_matrix


def test_certificate_large_semipositive():
    # n = 6241: one sparse LU of A gives x = A^-1 1 > 0 with A x > 0
    s = laplace_system(81)
    cert = m_matrix_certificate(s.A)
    assert cert.certified_irreducible_m_matrix
    assert cert.semipositive is True
    assert "semipositivity" in cert.method


def test_certificate_semipositive_with_indefinite_symmetric_part():
    # an M-matrix whose symmetric part is indefinite: semipositivity
    # certifies it, where "positive definite (A + A^T)/2" cannot
    A = csr_matrix(np.array([[1.0, -3.0], [-0.01, 1.0]]))
    assert np.linalg.eigvalsh(0.5 * (A + A.T).toarray()).min() < 0
    cert = m_matrix_certificate(A)
    assert cert.is_z_matrix and cert.semipositive
    assert cert.certified_irreducible_m_matrix
    assert dense_m_matrix_oracle(A)


@pytest.mark.parametrize("M", [[[1.0, -1.0], [-1.0, 1.0]], [[1.0, -2.0], [-2.0, 1.0]]],
                         ids=["singular", "inverse-negative"])
def test_certificate_rejects_z_matrix_that_is_not_m(M):
    A = csr_matrix(np.array(M))
    cert = m_matrix_certificate(A)
    assert cert.is_z_matrix and cert.is_irreducible
    assert cert.semipositive is False
    assert not cert.is_m_matrix
    assert not dense_m_matrix_oracle(A)


def test_certificate_uses_the_given_factors(monkeypatch):
    import eigenfem.matrix_analysis

    s = laplace_system(9)
    factors = lu_factor(s.A)

    def no_factoring(A):
        raise AssertionError("m_matrix_certificate factored a matrix")

    monkeypatch.setattr(eigenfem.matrix_analysis, "lu_factor", no_factoring)
    cert = m_matrix_certificate(s.A, factors)
    assert cert.semipositive and cert.certified_irreducible_m_matrix


def test_certificate_checks_a_x_not_only_x():
    # factors of the wrong matrix give x = 1 > 0; A x = (-1, -1) rejects it
    A = csr_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
    cert = m_matrix_certificate(A, lu_factor(csr_matrix(np.eye(2))))
    assert cert.semipositive is False


@pytest.mark.parametrize("kind", ["mesh45", "mesh135"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_certificate_matches_dense_oracle(name, kind):
    for J in (3, 5, 9, 17, 31):
        A = assemble(generate_structured(kind, J), catalog(name)).A
        cert = m_matrix_certificate(A)
        assert cert.is_m_matrix == dense_m_matrix_oracle(A), (name, kind, J)
        assert (cert.semipositive is None) == (not cert.is_z_matrix)


def test_perron_identity():
    I = csr_matrix(np.eye(5))
    po = perron_oracle(I, I)
    assert po.converged
    assert abs(po.perron_value - 1.0) <= 1e-12
    assert po.perron_vector_positive


def test_perron_oracle_matches_solver():
    for kind in ("mesh45", "mesh135"):
        m = generate_structured(kind, 5)
        s = assemble(m, catalog("ex5_1"))
        po = perron_oracle(s.A, s.B)
        sol = solve_smallest(s, k=1)
        lam1 = sol.eigenvalues[0].real
        assert po.converged
        assert abs(1.0 / po.perron_value - lam1) <= 1e-8 * lam1


def test_perron_certificate_soundness():
    # whenever the certificate passes, the dense inverse must be positive
    # and the Perron vector one-signed
    for name in ("laplace", "ex5_1", "ex5_4"):
        for kind in ("mesh45", "mesh135"):
            m = generate_structured(kind, 5)
            s = assemble(m, catalog(name))
            cert = m_matrix_certificate(s.A)
            po = perron_oracle(s.A, s.B)
            if cert.certified_irreducible_m_matrix:
                assert po.inverse_positive, f"{name}/{kind}"
                assert po.perron_vector_positive, f"{name}/{kind}"


def test_perron_rejects_large():
    s = laplace_system(41)  # n = 1521 > 400
    with pytest.raises(ValueError):
        perron_oracle(s.A, s.B)


def test_perron_rejects_singular():
    A = csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    B = csr_matrix(np.eye(2))
    with pytest.raises(SingularMatrixError):
        perron_oracle(A, B)


def test_reducible_m_matrix_detected():
    # block diagonal Stieltjes matrix: M-matrix yes, irreducible no
    B1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    A = block_diag([B1, B1]).tocsr()
    cert = m_matrix_certificate(A)
    assert cert.is_m_matrix
    assert not cert.is_irreducible
    assert not cert.certified_irreducible_m_matrix


def test_diagonal_scaling_certificate():
    # diag(1, 2, 3) is a trivially irreducible? no -- diagonal matrices
    # with n > 1 are reducible; still an M-matrix
    A = diags([1.0, 2.0, 3.0]).tocsr()
    cert = m_matrix_certificate(A)
    assert cert.is_m_matrix and not cert.is_irreducible
    assert cert.n_strong_components == 3
