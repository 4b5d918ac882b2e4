"""Generalized eigensolver for the assembled pencil (A, B).

The smallest-modulus eigenvalues of A v = lambda B v are found by ARPACK's
implicitly restarted Arnoldi method in regular mode on the one operator
A^{-1} B with the Euclidean inner product: each step is one product with B
and one solve with a sparse LU of A, and the largest Ritz values mu map
back as lambda = 1/mu.  Pencils too small for ARPACK (k >= n - 1) go to
dense QZ instead.

The iteration is deterministic: it starts from the all-ones vector and
ARPACK's random generator is seeded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .assembly import AssembledSystem, assemble, rayleigh
from .coefficients import ProblemCoefficients
from .errors import EigenSolveError
from .mesh import generate_structured
from .sparse_linalg import solve

ARPACK_SEED = 1234
VARIATIONAL_TRIALS = 200   # random vectors tried against the variational bound
VARIATIONAL_SEED = 20240817

# Tolerances of the property suite.
REAL_TOL = 1e-8          # |Im lambda_1| <= REAL_TOL * |lambda_1|
GAP_TOL = 1e-8           # simplicity: |lambda_2| - |lambda_1| > GAP_TOL * |lambda_1|
SIGN_TOL = 1e-10         # sign preservation: min entry > -SIGN_TOL after scaling
MODULUS_TOL = 1e-12      # |lambda_i| >= |lambda_1| - MODULUS_TOL * |lambda_1|
RE_MIN_TOL = 1e-8        # Re lambda_i >= lambda_1 - RE_MIN_TOL * lambda_1
VARIATIONAL_TOL = 1e-8   # F(v) >= lambda_1 - VARIATIONAL_TOL
RAYLEIGH_ID_TOL = 1e-6   # |F(u_1) - lambda_1| <= RAYLEIGH_ID_TOL * lambda_1


@dataclass(frozen=True)
class EigenSolution:
    """Converged Ritz pairs sorted by eigenvalue modulus (ascending)."""

    eigenvalues: np.ndarray          # complex, shape (k,)
    vectors: list                    # (n,) real, or (n, 2) basis for a complex pair
    residuals: np.ndarray            # ||A v - lambda B v|| / ||v|| per pair
    converged: np.ndarray            # bool per pair
    principal_vector: np.ndarray | None
    k_requested: int
    k_converged: int
    krylov_dim: int                  # ARPACK's ncv (n for the dense path)
    n_solves: int                    # LU solves, one per operator application
    mass: str                        # the mass treatment of the solved pencil


def _mass_matrix(system: AssembledSystem, mass: str):
    B = system.mass_matrix(mass)
    return B, float(np.abs(B.data).max()) if B.nnz else 0.0


def _phase_align(u: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(u)))
    piv = u[idx]
    if piv == 0:
        return u
    return u * (abs(piv) / piv)


def solve_smallest(system: AssembledSystem, k: int, mass: str = "consistent",
                   tol: float = 1e-10) -> EigenSolution:
    """Find the k smallest-modulus eigenpairs of A v = lambda B v.

    ARPACK runs regular-mode Arnoldi on A^{-1} B with the Euclidean inner
    product: each step is one product with B and one LU solve with A.  Its
    k largest-modulus Ritz values mu give lambda = 1/mu.  ARPACK tests for
    convergence only once the basis is full, so each solve costs at least
    ncv + 1 LU solves.  The Krylov dimension ncv is min(12, n) for k = 1 on
    a symmetric pencil (system.symmetric), whose principal pair converges
    to machine precision inside 12 vectors, and min(max(2k + 1, 20), n)
    otherwise.

    Parameters
    ----------
    system : assembled matrices from assembly.assemble
    k : number of eigenpairs requested (>= 1); more than n gives n pairs
    mass : "consistent" (full mass matrix) or "lumped" (row sums)
    tol : relative residual target; a pair counts as converged when
        ||A v - lambda B v|| / ||v|| <= tol * (max|A| + |lambda| max|B|)

    Raises ValueError when k < 1 or tol is not finite and positive.  With
    k >= n - 1 the pencil is solved by dense QZ.  If ARPACK stops before
    every pair converges, the pairs it has are returned, flagged by the
    residual test.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n = system.n
    if n == 0:
        raise EigenSolveError("mesh has no interior vertices; nothing to solve")
    k_eff = min(k, n)

    B, maxabs_B = _mass_matrix(system, mass)
    A = system.A
    maxabs_A = float(np.abs(A.data).max()) if A.nnz else 0.0
    # factored on both paths, so a singular A raises SingularMatrixError
    factors = system.lu

    if k_eff >= n - 1:
        lam, U = scipy.linalg.eig(A.toarray(), B.toarray())
        pick = np.argsort(np.abs(lam), kind="stable")[:k_eff]
        lam, U = lam[pick], U[:, pick].astype(np.complex128)
        krylov_dim, n_solves = n, 0
    else:
        n_solves = 0

        def apply_op(x):
            nonlocal n_solves
            n_solves += 1
            return solve(factors, B @ x)

        if system.symmetric and k_eff == 1:
            krylov_dim = min(12, n)
        else:
            krylov_dim = min(max(2 * k_eff + 1, 20), n)
        op = LinearOperator((n, n), matvec=apply_op, dtype=np.float64)
        try:
            mu, U = eigs(op, k=k_eff, which="LM", v0=np.ones(n), tol=0,
                         ncv=krylov_dim, rng=ARPACK_SEED)
        except ArpackNoConvergence as exc:
            mu, U = exc.eigenvalues, exc.eigenvectors
        lam = 1.0 / mu

    R = B @ U
    R *= lam
    R -= A @ U
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(U, axis=0)
    conv = (res <= tol * (maxabs_A + np.abs(lam) * maxabs_B)) & np.isfinite(lam)

    # Deterministic output order: modulus, then real part, then +Im first.
    out = np.lexsort((-lam.imag, lam.real, np.abs(lam)))
    lam, U, res, conv = lam[out], U[:, out], res[out], conv[out]

    vectors = []
    for i in range(len(lam)):
        u = _phase_align(U[:, i])
        if abs(lam[i].imag) <= REAL_TOL * max(abs(lam[i]), 1e-300):
            ur = np.real(u)
            nr = float(np.linalg.norm(ur))
            vectors.append(ur / nr if nr > 0 else ur)
        else:
            basis = np.column_stack([np.real(u), np.imag(u)])
            q, _ = np.linalg.qr(basis)
            vectors.append(q)

    principal = None
    if len(lam) and abs(lam[0].imag) <= REAL_TOL * max(abs(lam[0]), 1e-300):
        ur = vectors[0] if vectors[0].ndim == 1 else vectors[0][:, 0]
        piv = ur[int(np.argmax(np.abs(ur)))]
        if piv != 0.0:
            principal = ur / piv

    return EigenSolution(
        eigenvalues=lam, vectors=vectors, residuals=res, converged=conv,
        principal_vector=principal, k_requested=k, k_converged=int(conv.sum()),
        krylov_dim=krylov_dim, n_solves=n_solves, mass=mass,
    )


@dataclass(frozen=True)
class PropertyReport:
    """Numerical verification of the discrete principal-pair properties.

    Boolean fields are None when not applicable (e.g. the variational
    characterization requires a symmetric problem and a real principal
    eigenvalue).
    """

    principal_real: bool
    principal_simple: bool | None
    sign_preserving: bool
    undershoot: float | None
    re_positive_all: bool
    modulus_bound_all: bool
    re_at_least_lambda1: bool | None
    variational_min_ok: bool | None
    rayleigh_identity_ok: bool | None
    modulus_gap: float | None
    certificate_predicts: bool


def property_suite(solution: EigenSolution, system: AssembledSystem,
                   certificate=None) -> PropertyReport:
    """Check the computed spectrum against the predicted structure.

    With an irreducible M-matrix stiffness and positive mass, the smallest
    eigenvalue is real, simple, of smallest modulus, and its eigenvector
    one-signed; every eigenvalue has positive real part.  This routine
    measures each property on the computed pairs at fixed tolerances.
    The Rayleigh identity and the variational bound are evaluated on the
    pencil the solution was computed for (solution.mass); the variational
    bound only where the problem is declared symmetric (system.symmetric).
    """
    lam = solution.eigenvalues
    if len(lam) == 0:
        raise ValueError("solution holds no eigenpairs")
    l1 = complex(lam[0])
    a1 = abs(l1)

    principal_real = bool(abs(l1.imag) <= REAL_TOL * max(a1, 1e-300))

    if len(lam) >= 2 and solution.k_converged >= 2:
        gap = float(abs(lam[1]) - a1)
        principal_simple: bool | None = bool(gap > GAP_TOL * a1)
    else:
        gap = None
        principal_simple = None

    undershoot: float | None = None
    sign_preserving = False
    if principal_real and solution.principal_vector is not None:
        v = solution.principal_vector
        mn = float(v.min())
        undershoot = min(0.0, mn)
        sign_preserving = bool(mn > -SIGN_TOL)

    re_positive_all = bool(np.all(lam.real > 0.0))
    modulus_bound_all = bool(np.all(np.abs(lam) >= a1 - MODULUS_TOL * a1))

    re_at_least = None
    if principal_real:
        re_at_least = bool(np.all(lam.real >= l1.real - RE_MIN_TOL * abs(l1.real)))

    variational = None
    rayleigh_id = None
    if principal_real and l1.real > 0:
        if solution.principal_vector is not None:
            F1 = rayleigh(system, solution.principal_vector, solution.mass)
            rayleigh_id = bool(abs(F1 - l1.real) <= RAYLEIGH_ID_TOL * l1.real)
        if system.symmetric:
            rng = np.random.default_rng(VARIATIONAL_SEED)
            ok = True
            for _ in range(VARIATIONAL_TRIALS):
                v = rng.standard_normal(system.n)
                if rayleigh(system, v, solution.mass) < l1.real - VARIATIONAL_TOL:
                    ok = False
                    break
            variational = ok

    predicts = certificate.certified_irreducible_m_matrix if certificate is not None else False

    return PropertyReport(
        principal_real=principal_real,
        principal_simple=principal_simple,
        sign_preserving=sign_preserving,
        undershoot=undershoot,
        re_positive_all=re_positive_all,
        modulus_bound_all=modulus_bound_all,
        re_at_least_lambda1=re_at_least,
        variational_min_ok=variational,
        rayleigh_identity_ok=rayleigh_id,
        modulus_gap=gap,
        certificate_predicts=bool(predicts),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    J: int
    n_interior: int
    h: float
    lambda1: float
    error: float
    observed_order: float | None
    undershoot: float
    elapsed: float


@dataclass(frozen=True)
class ConvergenceStudy:
    problem: str
    mesh_kind: str
    reference: float
    mass: str
    rows: list
    slope: float


def convergence_study(coeffs: ProblemCoefficients, mesh_kind: str, J_list,
                      reference: float, mass: str = "consistent",
                      tol: float = 1e-10) -> ConvergenceStudy:
    """Refinement study of lambda_1 on a family of structured meshes.

    J_list must be strictly increasing with at least 3 entries, and the
    reference finite and positive, as lambda_1 of these operators is; each
    is a ValueError otherwise.  The error at each level is
    |lambda_1^h - reference| / reference (REFERENCE_VALUES holds defaults
    for the catalog problems); observed_order is the pairwise rate against
    the previous level and slope the least-squares rate over all levels.
    Expected rate for the P1 discretization is 2 (consistent mass
    overshoots from above on these problems).
    """
    if not (math.isfinite(reference) and reference > 0.0):
        raise ValueError(f"reference eigenvalue must be finite and positive, got {reference}")
    J_list = [int(J) for J in J_list]
    if len(J_list) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(J_list)}")
    if any(b <= a for a, b in zip(J_list, J_list[1:])):
        raise ValueError(f"J values must be strictly increasing, got {J_list}")

    def level(J: int, prev: ConvergenceRow | None) -> ConvergenceRow:
        t0 = time.perf_counter()
        mesh = generate_structured(mesh_kind, J)
        system = assemble(mesh, coeffs)
        sol = solve_smallest(system, k=1, mass=mass, tol=tol)
        if not sol.converged[:1].any():
            raise EigenSolveError(f"lambda_1 did not converge at J={J}")
        lam1 = sol.eigenvalues[0]
        if abs(lam1.imag) > REAL_TOL * abs(lam1):
            raise EigenSolveError(
                f"lambda_1 came out complex at J={J}: {lam1}")
        under = 0.0
        if sol.principal_vector is not None:
            under = min(0.0, float(sol.principal_vector.min()))
        err = float(abs(lam1.real - reference) / abs(reference))
        order = None
        if prev is not None and err > 0 and prev.error > 0:
            order = math.log(prev.error / err) / math.log(J / prev.J)
        h = float(system.table.geom.diameter.max(initial=0.0))
        return ConvergenceRow(J, system.n, h, float(lam1.real), err, order, under,
                              time.perf_counter() - t0)

    rows = []
    for J in J_list:
        # one level's mesh and system are freed before the next is built
        rows.append(level(J, rows[-1] if rows else None))

    pts = [(math.log(r.J), math.log(r.error)) for r in rows if r.error > 0]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(-np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return ConvergenceStudy(coeffs.label, mesh_kind, float(reference), mass,
                            rows, slope)
