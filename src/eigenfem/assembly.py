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

from dataclasses import dataclass, field
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

    assemble builds A.  B, B_lumped, A_diffusion and effective_reaction are
    built on first read from the element table the system keeps, with the
    expressions and triplet order assemble used for them before, so they are
    the same whichever is read first.  A_diffusion is the diffusion-only part
    of A and effective_reaction the bilinear form of c - (1/2) div b; together
    they make the Rayleigh functional a pair of quadratic forms instead of an
    element loop.
    """

    n: int
    A: csr_matrix
    mesh_ref: str
    coeffs_ref: str
    _table: ElementTable = field(repr=False)
    _index: np.ndarray = field(repr=False)      # interior index of each element vertex
    _scatter: tuple = field(repr=False)         # rows, cols, keep of the local entries
    _local_D: np.ndarray = field(repr=False)    # diffusion part of A's local matrices

    def _csr(self, local: np.ndarray) -> csr_matrix:
        rows, cols, keep = self._scatter
        return build_csr(self.n, self.n, rows, cols, local[keep])

    @cached_property
    def B(self) -> csr_matrix:
        """Consistent mass: |K|/((d+1)(d+2)) off the diagonal, twice that on it."""
        d1 = self._index.shape[1]
        mass_off = self._table.geom.volume * (1.0 / (d1 * (d1 + 1)))
        return self._csr(mass_off[:, None, None] * (1.0 + np.eye(d1)))

    @cached_property
    def B_lumped(self) -> np.ndarray:
        """Lumped mass: |K|/(d+1) summed over the patch of each vertex."""
        idx = self._index
        inner = idx >= 0
        share = self._table.geom.volume / idx.shape[1]
        b_lumped = np.bincount(idx[inner], minlength=self.n,
                               weights=np.broadcast_to(share[:, None], idx.shape)[inner])
        b_lumped.setflags(write=False)
        return b_lumped

    @cached_property
    def A_diffusion(self) -> csr_matrix:
        return self._csr(self._local_D)

    @cached_property
    def effective_reaction(self) -> csr_matrix:
        t = self._table
        bary, _ = quadrature_barycentric(self._index.shape[1] - 1)
        w = t.quad_weights * (t.reaction_q - 0.5 * t.divergence_q)
        return self._csr(bary.T @ (bary * w[:, :, None]))

    @cached_property
    def lu(self) -> LUFactors:
        """Sparse LU of A, made on first use; the solver and the certificate share it."""
        return lu_factor(self.A)


def assemble(mesh: SimplicialMesh, coeffs: ProblemCoefficients, *,
             table: ElementTable | None = None) -> AssembledSystem:
    """Assemble the stiffness matrix over interior vertices.

    Local matrices of all elements are formed at once from the element
    table (element_table(mesh, coeffs) unless one is passed) and scattered
    as COO triplets in element order.  The mass and Rayleigh matrices are
    built when first read (see AssembledSystem).
    """
    t = element_table(mesh, coeffs) if table is None else table
    bary, _ = quadrature_barycentric(mesh.dim)
    w = t.quad_weights
    G = t.geom.grad_basis
    GT = np.swapaxes(G, -1, -2)

    local_D = t.geom.volume[:, None, None] * (G @ t.D_K @ GT)
    # local_C[K, j, k] = sum_q w_q phi_j(x_q) (b(x_q) . grad phi_k)
    local_C = np.swapaxes(bary * w[:, :, None], -1, -2) @ (t.convection_q @ GT)
    local_R = bary.T @ (bary * (w * t.reaction_q)[:, :, None])

    idx = mesh.interior_index[mesh.elements]
    rows = np.broadcast_to(idx[:, :, None], local_D.shape)
    cols = np.broadcast_to(idx[:, None, :], local_D.shape)
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    n = mesh.n_interior
    return AssembledSystem(
        n=n,
        A=build_csr(n, n, rows, cols, (local_D + local_C + local_R)[keep]),
        mesh_ref=mesh.label,
        coeffs_ref=coeffs.label,
        _table=t,
        _index=idx,
        _scatter=(rows, cols, keep),
        _local_D=local_D,
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

