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
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import SuperLU

from .coefficients import ElementTable, ProblemCoefficients, element_table
from .element_geometry import quadrature_barycentric
from .mesh import SimplicialMesh
from .sparse_linalg import build_csr, lu_factor


@dataclass(frozen=True)
class AssembledSystem:
    """Immutable interior-vertex pencil (A, B) and the element table it came from.

    assemble builds A.  B and B_lumped are built on first read from the
    kept table and interior index, in A's triplet order, so they are the
    same whichever is read first.  lu is the one sparse LU of A, shared by
    the eigensolver and the certificate; table is the ElementTable of
    (mesh, coeffs), which analyze also hands to the mesh conditions.
    symmetric is the problem's declared coeffs.is_symmetric (b == 0
    identically), not a property sampled from A.
    """

    n: int
    A: csr_matrix
    symmetric: bool
    table: ElementTable = field(repr=False)
    _index: np.ndarray = field(repr=False)      # interior index of each element vertex

    @cached_property
    def B(self) -> csr_matrix:
        """Consistent mass: |K|/((d+1)(d+2)) off the diagonal, twice that on it."""
        d1 = self._index.shape[1]
        mass_off = self.table.geom.volume * (1.0 / (d1 * (d1 + 1)))
        rows, cols, keep = _scatter(self._index)
        return build_csr(self.n, self.n, rows, cols,
                         (mass_off[:, None, None] * (1.0 + np.eye(d1)))[keep])

    @cached_property
    def B_lumped(self) -> np.ndarray:
        """Lumped mass: |K|/(d+1) summed over the patch of each vertex."""
        idx = self._index
        inner = idx >= 0
        share = self.table.geom.volume / idx.shape[1]
        b_lumped = np.bincount(idx[inner], minlength=self.n,
                               weights=np.broadcast_to(share[:, None], idx.shape)[inner])
        b_lumped.setflags(write=False)
        return b_lumped

    @cached_property
    def _lumped_matrix(self) -> csr_matrix:
        return diags(self.B_lumped, format="csr")

    def mass_matrix(self, mass: str) -> csr_matrix:
        """B for "consistent" mass, the diagonal matrix of B_lumped for "lumped"."""
        if mass == "consistent":
            return self.B
        if mass == "lumped":
            return self._lumped_matrix
        raise ValueError(f"unknown mass treatment: {mass!r}")

    @cached_property
    def lu(self) -> SuperLU:
        """Sparse LU of A, made on first use; the solver and the certificate share it."""
        return lu_factor(self.A)


def _scatter(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the kept local entries, and the keep mask over
    the local (d+1) x (d+1) blocks: entries whose row and column vertices
    are both interior.  assemble and AssembledSystem.B each compute them,
    so the system keeps only idx."""
    shape = idx.shape + idx.shape[-1:]
    rows = np.broadcast_to(idx[:, :, None], shape)
    cols = np.broadcast_to(idx[:, None, :], shape)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], keep


def assemble(mesh: SimplicialMesh, coeffs: ProblemCoefficients) -> AssembledSystem:
    """Assemble the stiffness matrix over interior vertices.

    Local matrices of all elements are formed at once from
    element_table(mesh, coeffs) and scattered as COO triplets in element
    order.  The mass matrices are built when first read (see
    AssembledSystem).
    """
    t = element_table(mesh, coeffs)
    bary, _ = quadrature_barycentric(mesh.dim)
    w = t.quad_weights
    G = t.geom.grad_basis
    GT = np.swapaxes(G, -1, -2)

    local_D = t.geom.volume[:, None, None] * (G @ t.D_K @ GT)
    # local_C[K, j, k] = sum_q w_q phi_j(x_q) (b(x_q) . grad phi_k)
    local_C = np.swapaxes(bary * w[:, :, None], -1, -2) @ (t.convection_q @ GT)
    local_R = bary.T @ (bary * (w * t.reaction_q)[:, :, None])

    idx = mesh.interior_index[mesh.elements]
    rows, cols, keep = _scatter(idx)
    n = mesh.n_interior
    return AssembledSystem(
        n=n,
        A=build_csr(n, n, rows, cols, (local_D + local_C + local_R)[keep]),
        symmetric=coeffs.is_symmetric,
        table=t,
        _index=idx,
    )


def rayleigh(system: AssembledSystem, v: np.ndarray, mass: str = "consistent") -> float:
    """Rayleigh quotient F(v) = v' A v / v' B v of a real interior vector.

    B is the consistent or lumped mass (mass as in solve_smallest).  v' A v
    sees only the symmetric part of A: the convection form
    int v^h (b . grad v^h) equals -(1/2) int div b (v^h)^2, so F(v) is
    (int grad v^h . D grad v^h + (c - (1/2) div b) (v^h)^2) / v' B v.  The
    degree-2 rule integrates phi_j (b . grad phi_k) exactly for affine b,
    as in every catalog and JSON problem; for other b, v' A v and that
    split form differ by quadrature error.  For symmetric problems the minimum of F over
    nonzero v is the principal eigenvalue of (A, B).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (system.n,):
        raise ValueError(f"vector must have length {system.n}")
    if not np.any(v):
        raise ValueError("Rayleigh functional is undefined for the zero vector")
    return float(v @ (system.A @ v)) / float(v @ (system.mass_matrix(mass) @ v))
