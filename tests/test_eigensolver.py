"""Tests for the Arnoldi eigensolver on A^{-1} B and the property suite."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence

import eigenfem.eigensolver
from eigenfem import (REFERENCE_VALUES, EigenSolveError, SimplicialMesh, assemble,
                      catalog, convergence_study, generate_structured,
                      m_matrix_certificate, property_suite, solve_smallest)

from oracles import dense_generalized_eigs


def system_for(name, kind, J):
    m = generate_structured(kind, J)
    return m, assemble(m, catalog(name))


def test_laplace_principal_eigenvalue():
    _, s = system_for("laplace", "mesh45", 41)
    sol = solve_smallest(s, k=2)
    exact = 2 * math.pi ** 2
    lam1 = sol.eigenvalues[0]
    assert abs(lam1.imag) <= 1e-10
    assert abs(lam1.real - exact) <= 0.01 * exact
    # consistent mass approximates from above on this family
    assert lam1.real > exact


def test_matches_dense_oracle_symmetric():
    for kind in ("mesh45", "mesh135"):
        m, s = system_for("ex5_1", kind, 7)
        sol = solve_smallest(s, k=5)
        ref = dense_generalized_eigs(s.A, s.B.toarray(), k=5)
        got = np.sort(np.abs(sol.eigenvalues))
        want = np.sort(np.abs(ref))
        assert np.allclose(got, want, rtol=1e-7), f"{kind}"


def test_matches_dense_oracle_nonsymmetric():
    # ex5_2 on mesh135 produces genuinely complex spectra; moduli and the
    # actual complex values must match the dense QZ oracle
    m, s = system_for("ex5_2", "mesh135", 9)
    k = 6
    sol = solve_smallest(s, k=k)
    ref = dense_generalized_eigs(s.A, s.B.toarray(), k=k)
    assert np.allclose(np.sort(np.abs(sol.eigenvalues)),
                       np.sort(np.abs(ref)), rtol=1e-7)
    # match each computed eigenvalue against the reference set
    pool = list(ref)
    for lam in sol.eigenvalues:
        dists = [abs(lam - r) for r in pool]
        i = int(np.argmin(dists))
        assert dists[i] <= 1e-6 * max(1.0, abs(lam))
        pool.pop(i)


def test_residual_contract():
    _, s = system_for("ex5_2", "mesh45", 21)
    tol = 1e-10
    sol = solve_smallest(s, k=6, tol=tol)
    maxA = np.abs(s.A.data).max()
    maxB = np.abs(s.B.data).max()
    assert sol.k_converged == 6
    for lam, r, ok in zip(sol.eigenvalues, sol.residuals, sol.converged):
        assert ok
        assert r <= tol * (maxA + abs(lam) * maxB)


def test_eigenvalues_sorted_by_modulus():
    _, s = system_for("ex5_2", "mesh135", 11)
    sol = solve_smallest(s, k=8)
    mods = np.abs(sol.eigenvalues)
    assert np.all(np.diff(mods) >= -1e-9 * mods[:-1])


def test_complex_pairs_come_in_conjugates():
    _, s = system_for("ex5_2", "mesh135", 21)
    sol = solve_smallest(s, k=10)
    lam = sol.eigenvalues
    complex_ones = lam[np.abs(lam.imag) > 1e-8 * np.abs(lam)]
    assert len(complex_ones) > 0, "expected complex pairs on this mesh"
    assert len(complex_ones) % 2 == 0
    for z in complex_ones:
        partner = np.min(np.abs(complex_ones - np.conj(z)))
        assert partner <= 1e-6 * abs(z)


def test_principal_vector_normalization():
    m, s = system_for("ex5_1", "mesh45", 21)
    sol = solve_smallest(s, k=1)
    v = sol.principal_vector
    assert v is not None
    assert abs(v.max() - 1.0) <= 1e-12
    assert np.abs(v).max() <= 1.0 + 1e-12


def test_principal_sign_preserving_certified_case():
    m, s = system_for("ex5_1", "mesh45", 21)
    cert = m_matrix_certificate(s.A)
    assert cert.certified_irreducible_m_matrix
    sol = solve_smallest(s, k=6)
    props = property_suite(sol, s, cert)
    assert props.principal_real and props.principal_simple
    assert props.sign_preserving
    assert props.undershoot == 0.0
    assert props.re_positive_all and props.modulus_bound_all
    assert props.re_at_least_lambda1
    assert props.variational_min_ok
    assert props.rayleigh_identity_ok
    assert props.certificate_predicts


def test_sign_violation_detected_on_bad_mesh():
    # ex5_1 on mesh135: the certificate fails; the principal eigenvector
    # develops negative interior entries (undershoot < 0) at moderate J
    m, s = system_for("ex5_1", "mesh135", 21)
    cert = m_matrix_certificate(s.A)
    assert not cert.certified_irreducible_m_matrix
    sol = solve_smallest(s, k=4)
    props = property_suite(sol, s, cert)
    assert not props.certificate_predicts
    if props.principal_real:
        assert props.undershoot is not None


def test_lumped_mass_lower_bound():
    # lumped mass keeps Re(lambda_i) >= lambda_1 structure and approximates
    # lambda_1 from below on this family, while consistent is above
    _, s = system_for("laplace", "mesh45", 21)
    exact = 2 * math.pi ** 2
    lo = solve_smallest(s, k=1, mass="lumped").eigenvalues[0].real
    hi = solve_smallest(s, k=1, mass="consistent").eigenvalues[0].real
    assert lo < exact < hi


def test_lumped_vs_consistent_difference_shrinks():
    vals = {}
    for J in (11, 21, 41):
        _, s = system_for("laplace", "mesh45", J)
        lo = solve_smallest(s, k=1, mass="lumped").eigenvalues[0].real
        hi = solve_smallest(s, k=1, mass="consistent").eigenvalues[0].real
        vals[J] = hi - lo
    # second-order gap: quarters with each halving of h
    r1 = vals[11] / vals[21]
    r2 = vals[21] / vals[41]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


def test_determinism():
    _, s = system_for("ex5_2", "mesh45", 11)
    a = solve_smallest(s, k=4)
    b = solve_smallest(s, k=4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.residuals, b.residuals)
    for va, vb in zip(a.vectors, b.vectors):
        assert np.array_equal(va, vb)


def test_k_exceeding_dimension_is_capped():
    _, s = system_for("laplace", "mesh45", 3)  # n = 1
    sol = solve_smallest(s, k=5)
    assert len(sol.eigenvalues) == 1
    assert sol.k_converged == 1


def test_no_interior_vertices_raises():
    _, s = system_for("laplace", "mesh45", 2)
    assert s.n == 0
    with pytest.raises(EigenSolveError):
        solve_smallest(s, k=1)


def test_property_gap_undefined_with_one_pair():
    m, s = system_for("laplace", "mesh45", 9)
    sol = solve_smallest(s, k=1)
    props = property_suite(sol, s, None)
    assert props.principal_simple is None
    assert props.modulus_gap is None
    assert props.principal_real


def test_convergence_study_second_order():
    study = convergence_study(catalog("laplace"), "mesh45", [11, 21, 41],
                              REFERENCE_VALUES["laplace"])
    assert study.problem == "laplace"
    assert abs(study.reference - 2 * math.pi ** 2) <= 1e-12
    assert 1.8 <= study.slope <= 2.3
    errs = [r.error for r in study.rows]
    assert errs[0] > errs[1] > errs[2]
    orders = [r.observed_order for r in study.rows]
    assert orders[0] is None
    assert all(1.7 <= o <= 2.4 for o in orders[1:])
    assert all(r.undershoot == 0.0 for r in study.rows)


def test_convergence_study_validates_input():
    with pytest.raises(ValueError):
        convergence_study(catalog("laplace"), "mesh45", [11, 21], 1.0)
    with pytest.raises(ValueError):
        convergence_study(catalog("laplace"), "mesh45", [21, 11, 41], 1.0)


@pytest.mark.parametrize("ref", [0.0, -2.0 * math.pi ** 2, math.nan, math.inf])
def test_convergence_study_rejects_a_non_positive_reference(ref):
    with pytest.raises(ValueError, match="finite and positive"):
        convergence_study(catalog("laplace"), "mesh45", [5, 9, 17], ref)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_solve_smallest_rejects_a_bad_tolerance(tol):
    _, s = system_for("laplace", "mesh45", 9)
    with pytest.raises(ValueError, match="finite and positive"):
        solve_smallest(s, k=1, tol=tol)


def test_krylov_dimension_validated_up_front():
    _, s = system_for("laplace", "mesh45", 21)   # n = 361
    with pytest.raises(ValueError):
        solve_smallest(s, k=0)
    # ncv = min(12, n) for k = 1 on a symmetric pencil, min(max(2k + 1, 20), n)
    # otherwise: both always exceed ARPACK's bound k + 1
    assert solve_smallest(s, k=1).krylov_dim == 12
    assert solve_smallest(s, k=2).krylov_dim == 20
    # implicit restarts lift the old cap of 200 on the Krylov dimension
    sol = solve_smallest(s, k=200)
    assert len(sol.eigenvalues) == 200
    assert sol.k_converged == 200 and sol.krylov_dim == s.n
    # on a small pencil (k >= n - 1) dense QZ gives every pair
    _, small = system_for("laplace", "mesh45", 5)  # n = 9
    sol = solve_smallest(small, k=9)
    assert sol.k_converged == 9


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_symmetric_principal_solve_uses_a_short_basis(mass):
    # ARPACK tests convergence once the basis is full: ncv + 1 LU solves at best
    _, s = system_for("laplace", "mesh45", 21)
    assert s.symmetric
    sol = solve_smallest(s, k=1, mass=mass)
    assert sol.krylov_dim == 12 and sol.n_solves <= 13
    assert sol.converged.all()


@pytest.mark.parametrize("k", [1, 6])
def test_nonsymmetric_solve_keeps_the_default_basis(k):
    _, s = system_for("ex5_2", "mesh45", 21)
    assert not s.symmetric
    assert solve_smallest(s, k=k).krylov_dim == 20


def test_symmetric_flag_is_declared_not_sampled():
    # the flag is coeffs.is_symmetric: ex5_3's convection is divergence-free
    # but not zero, so its pencil counts as nonsymmetric
    assert not system_for("ex5_3", "mesh45", 9)[1].symmetric
    for name in ("laplace", "ex5_1", "ex5_4", "ex5_5k10", "ex5_5k100"):
        assert system_for(name, "mesh135", 9)[1].symmetric, name


def test_solve_needs_no_schur_form(monkeypatch):
    # the Ritz pairs come from one eig of the Hessenberg matrix; no Schur
    # factorization runs on the solve path
    def no_schur(*args, **kwargs):
        raise AssertionError("scipy.linalg.schur called")

    monkeypatch.setattr(scipy.linalg, "schur", no_schur)
    _, s = system_for("ex5_2", "mesh135", 11)
    sol = solve_smallest(s, k=8)
    assert len(sol.eigenvalues) == 8
    assert sol.k_converged == 8 and sol.converged.all()


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_stored_residuals_match_returned_vectors(mass):
    # each residual and its vector come from the same Ritz pair.  The
    # residual itself sits near rounding level (about 1e-14 of the scale
    # max|A| + |lambda| max|B|), so a recomputation from the normalized
    # vector can differ from it by a few percent; the agreement is measured
    # against that scale, where a value matched to the wrong vector shows
    # up as a residual of order 1e-3 or more.  A complex pair returns an
    # orthonormal basis of span(Re u, Im u); the best residual over that
    # span can only be smaller than the stored one.
    _, s = system_for("ex5_2", "mesh45", 21)
    sol = solve_smallest(s, k=6, mass=mass)
    maxA = np.abs(s.A.data).max()
    if mass == "consistent":
        B, maxB = s.B, np.abs(s.B.data).max()
    else:
        B, maxB = scipy.sparse.diags(s.B_lumped), np.abs(s.B_lumped).max()
    # all() of an empty array is True: an empty solution must not pass
    assert sol.k_converged == 6 and len(sol.eigenvalues) == 6
    assert sol.converged.all()
    for lam, v, r in zip(sol.eigenvalues, sol.vectors, sol.residuals):
        scale = maxA + abs(lam) * maxB
        if v.ndim == 1:
            check = np.linalg.norm(s.A @ v - lam * (B @ v)) / np.linalg.norm(v)
            assert abs(r - check) <= 1e-12 * scale, (lam, r, check)
        else:
            best = np.linalg.svd(s.A @ v - lam * (B @ v), compute_uv=False)[-1]
            assert best <= r + 1e-12 * scale, (lam, r, best)


def test_arpack_no_convergence_returns_partial_pairs(monkeypatch):
    # when ARPACK gives up, the pairs it has are kept and flagged by the
    # residual test instead of being lost to the exception
    real_eigs = eigenfem.eigensolver.eigs

    def give_up(*args, **kwargs):
        lam, U = real_eigs(*args, **kwargs)
        raise ArpackNoConvergence("synthetic", lam[:2], U[:, :2])

    monkeypatch.setattr(eigenfem.eigensolver, "eigs", give_up)
    _, s = system_for("laplace", "mesh45", 21)
    sol = solve_smallest(s, k=6)
    assert sol.k_requested == 6
    assert len(sol.eigenvalues) == 2 and sol.k_converged == 2
    assert sol.n_solves > 0


class _CountingMass(scipy.sparse.csr_matrix):
    """A mass matrix that counts its products with a single vector."""

    vector_products = 0

    def __matmul__(self, other):
        if np.ndim(other) == 1 or np.shape(other)[-1] == 1:
            self.vector_products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_one_mass_product_per_lu_solve(monkeypatch, mass):
    # ARPACK runs on the one operator A^{-1} B: each step is one B product
    # and one LU solve, with no B-inner products on top.  The residual test
    # multiplies B by all six vectors at once and is not counted.
    real_mass_matrix = eigenfem.eigensolver._mass_matrix
    made = []

    def counting_mass_matrix(system, mass):
        B, maxabs = real_mass_matrix(system, mass)
        made.append(_CountingMass(B))
        return made[-1], maxabs

    monkeypatch.setattr(eigenfem.eigensolver, "_mass_matrix", counting_mass_matrix)
    _, s = system_for("ex5_2", "mesh45", 21)
    sol = solve_smallest(s, k=6, mass=mass)
    assert len(made) == 1 and sol.n_solves > 0
    assert 0 < made[0].vector_products <= sol.n_solves


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
@pytest.mark.parametrize("name, kind", [("laplace", "mesh45"), ("laplace", "mesh135"),
                                        ("ex5_1", "mesh45")])
def test_symmetric_spectrum_matches_dense_qz(name, kind, mass):
    # k = 8 on J = 17 takes in laplace's double eigenvalue lambda_2 = lambda_3
    _, s = system_for(name, kind, 17)
    B = s.B if mass == "consistent" else scipy.sparse.diags(s.B_lumped)
    ref = dense_generalized_eigs(s.A, B, k=8)
    assert np.all(ref.imag == 0.0)
    sol = solve_smallest(s, k=8, mass=mass)
    assert sol.k_converged == 8
    rel = np.abs(sol.eigenvalues - ref.real) / ref.real
    assert rel.max() <= 1e-12, rel
