"""Assembly of the interior-vertex stiffness and mass matrices.

The discrete problem is A u = lambda B u over interior vertices only
(homogeneous Dirichlet rows and columns are never created).  Per element,
the stiffness contribution is

    |K| grad(phi_j)' D_K grad(phi_k)
      + int_K phi_j (b . grad(phi_k))  +  int_K c phi_j phi_k

with D_K the quadrature average of D over K and both integrals evaluated
by the degree-2 rule.  Mass entries use the exact closed forms
|K|/((d+1)(d+2)) off the diagonal and twice that on it; lumping sums
|K|/(d+1) over the patch of each vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .coefficients import ElementTable, ProblemCoefficients, element_table
from .element_geometry import quadrature_barycentric
from .mesh import SimplicialMesh
from .sparse_linalg import LUFactors, build_csr, lu_factor


@dataclass(frozen=True)
class AssembledSystem:
    """Immutable interior-vertex system A u = lambda B u.

    A_diffusion is the diffusion-only part of A and effective_reaction the
    bilinear form of c - (1/2) div b; together they make the Rayleigh
    functional a pair of quadratic forms instead of an element loop.
    """

    n: int
    A: csr_matrix
    B: csr_matrix
    B_lumped: np.ndarray
    A_diffusion: csr_matrix
    effective_reaction: csr_matrix
    mesh_ref: str
    coeffs_ref: str

    @cached_property
    def lu(self) -> LUFactors:
        """Sparse LU of A, made on first use; the solver and the certificate share it."""
        return lu_factor(self.A)


def assemble(mesh: SimplicialMesh, coeffs: ProblemCoefficients, *,
             table: ElementTable | None = None) -> AssembledSystem:
    """Assemble stiffness and mass matrices over interior vertices.

    Local matrices of all elements are formed at once from the element
    table (element_table(mesh, coeffs) unless one is passed) and scattered
    as COO triplets in element order.
    """
    t = element_table(mesh, coeffs) if table is None else table
    d = mesh.dim
    n = mesh.n_interior
    bary, _ = quadrature_barycentric(d)
    vol = t.geom.volume
    w = t.quad_weights
    G = t.geom.grad_basis
    GT = np.swapaxes(G, -1, -2)

    local_D = vol[:, None, None] * (G @ t.D_K @ GT)
    # local_C[K, j, k] = sum_q w_q phi_j(x_q) (b(x_q) . grad phi_k)
    local_C = np.swapaxes(bary * w[:, :, None], -1, -2) @ (t.convection_q @ GT)
    local_R = bary.T @ (bary * (w * t.reaction_q)[:, :, None])
    local_eff = bary.T @ (bary * (w * (t.reaction_q - 0.5 * t.divergence_q))[:, :, None])
    local_A = local_D + local_C + local_R
    mass_off = vol * (1.0 / ((d + 1) * (d + 2)))
    local_B = mass_off[:, None, None] * (1.0 + np.eye(d + 1))

    idx = mesh.interior_index[mesh.elements]
    rows = np.broadcast_to(idx[:, :, None], local_A.shape)
    cols = np.broadcast_to(idx[:, None, :], local_A.shape)
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    inner = idx >= 0
    b_lumped = np.bincount(idx[inner], minlength=n,
                           weights=np.broadcast_to((vol / (d + 1))[:, None], idx.shape)[inner])
    b_lumped.setflags(write=False)
    return AssembledSystem(
        n=n,
        A=build_csr(n, n, rows, cols, local_A[keep]),
        B=build_csr(n, n, rows, cols, local_B[keep]),
        B_lumped=b_lumped,
        A_diffusion=build_csr(n, n, rows, cols, local_D[keep]),
        effective_reaction=build_csr(n, n, rows, cols, local_eff[keep]),
        mesh_ref=mesh.label,
        coeffs_ref=coeffs.label,
    )


def rayleigh(system: AssembledSystem, v: np.ndarray) -> float:
    """Rayleigh functional F(v) of a real interior vector.

    F(v) = (v' A_D v + int (c - 0.5 div b) (v^h)^2) / (v' B v), where A_D
    is the diffusion-only stiffness.  For symmetric problems this is the
    functional whose minimum over nonzero v is the principal eigenvalue.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (system.n,):
        raise ValueError(f"vector must have length {system.n}")
    if not np.any(v):
        raise ValueError("Rayleigh functional is undefined for the zero vector")
    num = float(v @ (system.A_diffusion @ v)) + float(v @ (system.effective_reaction @ v))
    den = float(v @ (system.B @ v))
    return num / den

