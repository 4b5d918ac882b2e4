"""Generalized eigensolver for the assembled pencil (A, B).

The smallest-modulus eigenvalues of A v = lambda B v are found by Arnoldi
iteration on the shift-inverted operator v -> A^{-1} B v with full (twice-
applied classical Gram-Schmidt) reorthogonalization.  Ritz values mu of
the small Hessenberg matrix map back as lambda = 1/mu, so the largest
|mu| give the smallest |lambda|.

The iteration is deterministic: it starts from the all-ones vector, and
on a restart (not all requested pairs converged, or an invariant subspace
was hit early) continues from the sum of the current Ritz vectors plus a
seeded random perturbation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import AssembledSystem, assemble, rayleigh
from .coefficients import ProblemCoefficients, catalog, REFERENCE_VALUES
from .errors import EigenSolveError
from .mesh import SimplicialMesh, generate_structured, mesh_spacing
from .sparse_linalg import HESSENBERG_MAX_DIM, lu_factor, solve

BREAKDOWN_REL_TOL = 1e-13
DEFAULT_SEED = 1234
MAX_RESTARTS = 8

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
    mass: str
    restarts: int

    @property
    def lambda1(self) -> complex:
        return complex(self.eigenvalues[0])


def _mass_apply(system: AssembledSystem, mass: str):
    if mass == "consistent":
        B = system.B
        return (lambda v: B @ v), float(np.abs(B.data).max()) if B.nnz else 0.0
    if mass == "lumped":
        w = system.B_lumped
        # the transposes let one function scale a vector or a block's rows
        return (lambda v: (w * v.T).T), float(np.abs(w).max())
    raise ValueError(f"unknown mass treatment: {mass!r}")


def _phase_align(u: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(u)))
    piv = u[idx]
    if piv == 0:
        return u
    return u * (abs(piv) / piv)


def solve_smallest(system: AssembledSystem, k: int, mass: str = "consistent",
                   tol: float = 1e-10, max_krylov: int | None = None,
                   seed: int = DEFAULT_SEED) -> EigenSolution:
    """Find the k smallest-modulus eigenpairs of A v = lambda B v.

    Parameters
    ----------
    system : assembled matrices from assembly.assemble
    k : number of eigenpairs requested (>= 1)
    mass : "consistent" (full mass matrix) or "lumped" (row sums)
    tol : relative residual target; a pair counts as converged when
        ||A v - lambda B v|| / ||v|| <= tol * (max|A| + |lambda| max|B|)
    max_krylov : Krylov dimension, at most HESSENBERG_MAX_DIM; default
        max(60, 4k), clamped to HESSENBERG_MAX_DIM.  Either is capped at n.

    Raises ValueError when k < 1, max_krylov > HESSENBERG_MAX_DIM, or the
    Krylov dimension leaves no room beyond k pairs (m <= k < n), so with
    n > HESSENBERG_MAX_DIM the largest k is HESSENBERG_MAX_DIM - 1.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if max_krylov is not None and max_krylov > HESSENBERG_MAX_DIM:
        raise ValueError(f"max_krylov {max_krylov} exceeds {HESSENBERG_MAX_DIM}")
    n = system.n
    if n == 0:
        raise EigenSolveError("mesh has no interior vertices; nothing to solve")
    k_eff = min(k, n)
    if max_krylov is None:
        max_krylov = min(max(60, 4 * k_eff), HESSENBERG_MAX_DIM)
    m = min(max_krylov, n)
    if m <= k_eff and m < n:
        raise ValueError(f"Krylov dimension {m} leaves no room for k = {k} "
                         f"eigenpairs of an n = {n} pencil")

    apply_B, maxabs_B = _mass_apply(system, mass)
    maxabs_A = float(np.abs(system.A.data).max()) if system.A.nnz else 0.0
    factors = lu_factor(system.A)
    rng = np.random.default_rng(seed)

    best: EigenSolution | None = None
    v0 = np.ones(n)

    for restart in range(MAX_RESTARTS + 1):
        V = np.zeros((n, m + 1), order="F")
        H = np.zeros((m + 1, m))
        hmax = 1e-300
        nrm = float(np.linalg.norm(v0))
        if nrm == 0.0 or not np.isfinite(nrm):
            v0 = rng.standard_normal(n)
            nrm = float(np.linalg.norm(v0))
        V[:, 0] = v0 / nrm

        m_eff = m
        for j in range(m):
            w = solve(factors, apply_B(V[:, j]))
            # classical Gram-Schmidt, applied twice
            Vj = V[:, :j + 1]
            h1 = Vj.T @ w
            w = w - Vj @ h1
            h2 = Vj.T @ w
            w = w - Vj @ h2
            H[:j + 1, j] = h1 + h2
            beta = float(np.linalg.norm(w))
            hmax = max(hmax, float(np.abs(H[:j + 1, j]).max()))
            if beta <= BREAKDOWN_REL_TOL * hmax:
                # Invariant subspace found.  Keep the block structure
                # (H[j+1, j] = 0) and continue in a fresh random direction
                # so higher pairs can still be captured.
                H[j + 1, j] = 0.0
                if j + 1 < m:
                    fresh = rng.standard_normal(n)
                    Vj1 = V[:, :j + 1]
                    fresh = fresh - Vj1 @ (Vj1.T @ fresh)
                    fresh = fresh - Vj1 @ (Vj1.T @ fresh)
                    fn = float(np.linalg.norm(fresh))
                    if fn <= BREAKDOWN_REL_TOL:
                        m_eff = j + 1
                        break
                    V[:, j + 1] = fresh / fn
                else:
                    m_eff = j + 1
            else:
                H[j + 1, j] = beta
                hmax = max(hmax, beta)
                V[:, j + 1] = w / beta

        # One LAPACK call gives the Ritz values and vectors; geev returns a
        # complex pair as exact conjugates, +Im first, so the stable sort
        # keeps the pair order.
        mu, Y = scipy.linalg.eig(H[:m_eff, :m_eff])
        pick = np.argsort(-np.abs(mu), kind="stable")[:k_eff]
        mu, Ys = mu[pick], Y[:, pick]
        # U = V Y as two real products, written as (Y^T V^T)^T so that the
        # BLAS packs the small Y block, not the n x m basis: the plain V @ Y
        # raised the peak RSS of a solve by about 1 MB (n = 1521, m = 160,
        # k = 40, OpenBLAS on 2 threads).
        Vt = V[:, :m_eff].T
        U = (Ys.real.T @ Vt + 1j * (Ys.imag.T @ Vt)).T
        lam = np.full(len(mu), complex(np.inf, 0.0))
        finite = np.abs(mu) >= 1e-300
        lam[finite] = 1.0 / mu[finite]
        R = apply_B(U)
        R *= lam
        R -= system.A @ U
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

        sol = EigenSolution(
            eigenvalues=lam, vectors=vectors, residuals=res, converged=conv,
            principal_vector=principal, k_requested=k, k_converged=int(conv.sum()),
            mass=mass, restarts=restart,
        )
        if best is None or sol.k_converged > best.k_converged:
            best = sol
        if sol.k_converged == k_eff:
            return sol

        # Restart from the span of the current Ritz vectors plus noise.
        acc = U.real.sum(axis=1) + U.imag.sum(axis=1)
        an = float(np.linalg.norm(acc))
        noise = rng.standard_normal(n)
        v0 = (acc / an if an > 0 else 0.0) + 0.01 * noise / float(np.linalg.norm(noise))

    assert best is not None
    return best


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
                   mesh: SimplicialMesh, coeffs: ProblemCoefficients,
                   certificate=None, n_trials: int = 200,
                   seed: int = 20240817) -> PropertyReport:
    """Check the computed spectrum against the predicted structure.

    With an irreducible M-matrix stiffness and positive mass, the smallest
    eigenvalue is real, simple, of smallest modulus, and its eigenvector
    one-signed; every eigenvalue has positive real part.  This routine
    measures each property on the computed pairs at fixed tolerances.
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
            F1 = rayleigh(system, coeffs, mesh, solution.principal_vector)
            rayleigh_id = bool(abs(F1 - l1.real) <= RAYLEIGH_ID_TOL * l1.real)
        if coeffs.is_symmetric:
            rng = np.random.default_rng(seed)
            ok = True
            for _ in range(n_trials):
                v = rng.standard_normal(system.n)
                if rayleigh(system, coeffs, mesh, v) < l1.real - VARIATIONAL_TOL:
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


def convergence_study(problem: str, mesh_kind: str, J_list,
                      reference: float | None = None, mass: str = "consistent",
                      tol: float = 1e-10) -> ConvergenceStudy:
    """Refinement study of lambda_1 on a family of structured meshes.

    J_list must be strictly increasing with at least 3 entries.  The error
    at each level is |lambda_1^h - reference| / reference; observed_order
    is the pairwise rate against the previous level and slope the least-
    squares rate over all levels.  Expected rate for the P1 discretization
    is 2 (consistent mass overshoots from above on these problems).
    """
    J_list = [int(J) for J in J_list]
    if len(J_list) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(J_list)}")
    if any(b <= a for a, b in zip(J_list, J_list[1:])):
        raise ValueError(f"J values must be strictly increasing, got {J_list}")
    if reference is None:
        if problem not in REFERENCE_VALUES:
            raise ValueError(f"no reference value known for problem {problem!r}")
        reference = REFERENCE_VALUES[problem]
    coeffs = catalog(problem)

    def level(J: int) -> ConvergenceRow:
        t0 = time.perf_counter()
        mesh = generate_structured(mesh_kind, J)
        system = assemble(mesh, coeffs)
        sol = solve_smallest(system, k=1, mass=mass, tol=tol)
        lam1 = sol.eigenvalues[0]
        if abs(lam1.imag) > REAL_TOL * abs(lam1):
            raise EigenSolveError(
                f"lambda_1 came out complex at J={J}: {lam1}")
        under = 0.0
        if sol.principal_vector is not None:
            under = min(0.0, float(sol.principal_vector.min()))
        err = abs(lam1.real - reference) / abs(reference)
        return ConvergenceRow(J, system.n, mesh_spacing(mesh), float(lam1.real),
                              float(err), None, under,
                              time.perf_counter() - t0)

    rows = [level(J) for J in J_list]

    out_rows = []
    for i, row in enumerate(rows):
        order = None
        if i > 0 and row.error > 0 and rows[i - 1].error > 0:
            order = math.log(rows[i - 1].error / row.error) / math.log(
                row.J / rows[i - 1].J)
        out_rows.append(ConvergenceRow(row.J, row.n_interior, row.h, row.lambda1,
                                       row.error, order, row.undershoot,
                                       row.elapsed))

    pts = [(math.log(r.J), math.log(r.error)) for r in out_rows if r.error > 0]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(-np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return ConvergenceStudy(problem, mesh_kind, float(reference), mass,
                            out_rows, slope)
