"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test:

* dense_generalized_eigs uses LAPACK's QZ via scipy.linalg.eig on dense
  arrays, never the package's Arnoldi or sparse LU;
* integrate_on_triangle / integrate_on_tet use brute-force subdivision
  sampling, never the package's quadrature rule;
* hessenberg_eigs_qr finds Hessenberg eigenvalues by a hand-written
  shifted QR iteration, never a Schur routine;
* hessenberg_eigen reads eigenvalues off scipy's real Schur form; no
  package code calls it, and the Schur tests check it against
  hessenberg_eigs_qr;
* loop_assemble, loop_nonobtuse and loop_delaunay redo assembly and the
  mesh conditions one element and one edge at a time, calling the
  coefficient functions at one point per call, never the batched element
  table;
* eager_assemble builds all five matrices of an assembled system in one
  call, with the expressions of an assemble that built them all up front,
  where the package builds all but A on first read;
* broadcast_coefficient_stats broadcasts each coefficient to every node
  before it averages or reduces, where the element table reduces what the
  callable returned;
* loop_write_vtk and loop_parse_node / loop_parse_ele format and parse
  files one value at a time, never through bulk array conversions;
* loop_z_matrix_check walks a CSR matrix entry by entry for the first
  sign violation, never through whole-array masks;
* dense_m_matrix_oracle decides the M-matrix property from a dense
  inverse, never a sparse LU or the semipositivity test;
* perron_oracle finds the Perron pair of A^{-1} B from a dense inverse
  and power iteration, never a sparse LU or ARPACK.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from eigenfem.coefficients import element_table
from eigenfem.element_geometry import quadrature_barycentric
from eigenfem.errors import MeshError, SingularMatrixError
from eigenfem.sparse_linalg import build_csr


class NumericalFailureError(RuntimeError):
    """A dense kernel (QR iteration, Schur) failed to converge."""


def dense_generalized_eigs(A, B, k: int | None = None) -> np.ndarray:
    """All eigenvalues of A v = lambda B v by dense QZ, sorted by modulus."""
    Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    Bd = B.toarray() if hasattr(B, "toarray") else np.asarray(B)
    w = scipy.linalg.eig(Ad, Bd, right=False)
    order = np.argsort(np.abs(w), kind="stable")
    w = w[order]
    return w if k is None else w[:k]


def dense_generalized_eigs_cond(A, B, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-modulus eigenvalues together with their condition numbers.

    kappa_i = ||x_i|| ||y_i|| / |y_i^H B x_i| bounds the first-order
    eigenvalue perturbation: |dlambda| <= kappa * (||dA|| + |lambda| ||dB||).
    Backward-stable computations of badly conditioned (strongly nonnormal)
    pencils can only agree up to this bound times machine epsilon.
    """
    Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    Bd = B.toarray() if hasattr(B, "toarray") else np.asarray(B)
    w, vl, vr = scipy.linalg.eig(Ad, Bd, left=True, right=True)
    order = np.argsort(np.abs(w), kind="stable")[:k]
    kappas = np.empty(len(order))
    for j, i in enumerate(order):
        x, y = vr[:, i], vl[:, i]
        kappas[j] = (np.linalg.norm(x) * np.linalg.norm(y)
                     / abs(np.vdot(y, Bd @ x)))
    return w[order], kappas


def integrate_on_triangle(f, X, level: int = 64) -> float:
    """Integrate f over a triangle by uniform barycentric subdivision.

    Splits the triangle into level^2 congruent subtriangles and applies
    the centroid rule on each; exact enough (O(level^-2)) for oracle use.
    """
    X = np.asarray(X, dtype=float)
    assert X.shape == (3, 2)
    area = 0.5 * abs(np.linalg.det(np.column_stack([X[1] - X[0], X[2] - X[0]])))
    total = 0.0
    n = level
    sub_area = area / (n * n)
    for i in range(n):
        for j in range(n - i):
            # upward subtriangle centroid in barycentric coordinates
            l1 = (i + 1.0 / 3.0) / n
            l2 = (j + 1.0 / 3.0) / n
            p = X[0] + l1 * (X[1] - X[0]) + l2 * (X[2] - X[0])
            total += f(p) * sub_area
            if j < n - i - 1:
                l1 = (i + 2.0 / 3.0) / n
                l2 = (j + 2.0 / 3.0) / n
                p = X[0] + l1 * (X[1] - X[0]) + l2 * (X[2] - X[0])
                total += f(p) * sub_area
    return total


def hat_function(X, vertex: int):
    """The P1 basis function on a triangle that is 1 at the given vertex."""
    X = np.asarray(X, dtype=float)
    T = np.column_stack([X[1] - X[0], X[2] - X[0]])
    Tinv = np.linalg.inv(T)

    def phi(p):
        lam = Tinv @ (np.asarray(p) - X[0])
        bary = np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])
        return bary[vertex]

    return phi


HESSENBERG_MAX_DIM = 200


def hessenberg_eigen(H: np.ndarray):
    """Eigenvalues and real Schur form of a dense real matrix.

    Returns (eigenvalues, T, Z) with H = Z T Z^T, T quasi upper triangular.
    Eigenvalues are read off the 1x1 and 2x2 diagonal blocks of T, so
    complex values come out in exact conjugate pairs.  Only for small
    matrices (m <= HESSENBERG_MAX_DIM).
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("matrix must be square")
    m = H.shape[0]
    if m > HESSENBERG_MAX_DIM:
        raise ValueError(f"matrix dimension {m} exceeds {HESSENBERG_MAX_DIM}")
    if m == 0:
        return np.zeros(0, dtype=np.complex128), H.copy(), np.eye(0)
    try:
        T, Z = scipy.linalg.schur(H, output="real")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"Schur iteration failed: {exc}") from exc

    eigs = np.empty(m, dtype=np.complex128)
    i = 0
    while i < m:
        if i == m - 1 or T[i + 1, i] == 0.0:
            eigs[i] = T[i, i]
            i += 1
            continue
        a, b = T[i, i], T[i, i + 1]
        c, d = T[i + 1, i], T[i + 1, i + 1]
        mean = 0.5 * (a + d)
        disc = 0.25 * (a - d) ** 2 + b * c
        if disc < 0.0:
            root = np.sqrt(-disc)
            eigs[i] = mean + 1j * root
            eigs[i + 1] = mean - 1j * root
        else:
            root = np.sqrt(disc)
            eigs[i] = mean + root
            eigs[i + 1] = mean - root
        i += 2
    return eigs, T, Z


def hessenberg_eigs_qr(H, tol: float = 1e-13,
                       max_sweeps: int = 20000) -> np.ndarray:
    """Eigenvalues of a small dense matrix by a hand-written shifted QR.

    Runs the classic single-shift QR iteration in complex arithmetic with
    a Wilkinson shift, deflating whenever the bottom subdiagonal entry of
    the active block is negligible.  Independent of any Schur routine;
    suitable only as a slow cross-check on small matrices.
    """
    A = np.asarray(H, dtype=complex).copy()
    n = A.shape[0]
    eigs = []
    hi = n
    sweeps = 0
    while hi > 0 and sweeps < max_sweeps:
        if hi == 1:
            eigs.append(A[0, 0])
            hi = 0
            break
        m = hi
        if abs(A[m - 1, m - 2]) <= tol * (abs(A[m - 1, m - 1]) + abs(A[m - 2, m - 2])):
            eigs.append(A[m - 1, m - 1])
            hi -= 1
            continue
        # Wilkinson shift: eigenvalue of the trailing 2x2 closest to the corner.
        a, b = A[m - 2, m - 2], A[m - 2, m - 1]
        c, d = A[m - 1, m - 2], A[m - 1, m - 1]
        tr = a + d
        det = a * d - b * c
        disc = np.sqrt(tr * tr / 4.0 - det + 0j)
        mu1, mu2 = tr / 2.0 + disc, tr / 2.0 - disc
        mu = mu1 if abs(mu1 - d) < abs(mu2 - d) else mu2
        Q, R = np.linalg.qr(A[:hi, :hi] - mu * np.eye(hi))
        A[:hi, :hi] = R @ Q + mu * np.eye(hi)
        sweeps += 1
    for i in range(hi):
        eigs.append(A[i, i])
    return np.array(eigs)


# ---------------------------------------------------------------------------
# per-element loop reference for assembly and the mesh conditions
# ---------------------------------------------------------------------------

_CLAMP = 1e-12


def _loop_element(mesh, coeffs, K: int) -> dict:
    """Geometry and coefficient data of element K, computed on its own."""
    X = mesh.vertices[mesh.elements[K]]
    d = mesh.dim
    V = (X[1:] - X[0]).T
    vol = float(np.linalg.det(V)) / math.factorial(d)
    Vinv = np.linalg.inv(V)
    grads = np.vstack([-Vinv.sum(axis=0), Vinv])
    normals = -grads / np.linalg.norm(grads, axis=1)[:, None]
    diam = max(float(np.linalg.norm(X[a] - X[b]))
               for a, b in itertools.combinations(range(d + 1), 2))

    bary, wref = quadrature_barycentric(d)
    pts, w = bary @ X, wref * vol
    D_K = np.zeros((d, d))
    for p, wq in zip(pts, w):
        D_K += wq * np.asarray(coeffs.diffusion(p))
    D_K /= float(w.sum())
    samples = np.vstack([pts, X])
    G = normals @ D_K @ normals.T
    s = np.sqrt(np.diag(G))
    C = -G / np.outer(s, s)
    np.fill_diagonal(C, 1.0)
    return {
        "vol": vol, "diam": diam, "grads": grads, "pts": pts, "w": w,
        "D_K": D_K, "lam_min": float(np.linalg.eigvalsh(D_K)[0]),
        "b_sup": max(float(np.linalg.norm(coeffs.convection(p))) for p in samples),
        "c_sup": max(abs(float(coeffs.reaction(p))) for p in samples),
        "cos": np.clip(C, -1.0, 1.0),
    }


def loop_assemble(mesh, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Dense interior stiffness A and consistent mass B, element by element."""
    d = mesh.dim
    n = mesh.n_interior
    bary, _ = quadrature_barycentric(d)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for K in range(mesh.n_elements):
        e = _loop_element(mesh, coeffs, K)
        G, w, vol = e["grads"], e["w"], e["vol"]
        bq = np.array([np.broadcast_to(coeffs.convection(p), (d,)) for p in e["pts"]])
        cq = np.array([float(coeffs.reaction(p)) for p in e["pts"]])
        local_A = (vol * (G @ e["D_K"] @ G.T)
                   + (bary * w[:, None]).T @ (bq @ G.T)
                   + bary.T @ (bary * (w * cq)[:, None]))
        local_B = np.full((d + 1, d + 1), vol / ((d + 1) * (d + 2)))
        np.fill_diagonal(local_B, 2.0 * vol / ((d + 1) * (d + 2)))
        idx = mesh.interior_index[mesh.elements[K]]
        for a in range(d + 1):
            for b in range(d + 1):
                if idx[a] >= 0 and idx[b] >= 0:
                    A[idx[a], idx[b]] += local_A[a, b]
                    B[idx[a], idx[b]] += local_B[a, b]
    return A, B


def eager_assemble(mesh, coeffs) -> dict:
    """A, B and B_lumped of the interior system, every one built before any
    is returned, with the split Rayleigh forms: A_diffusion, the
    diffusion-only stiffness, and effective_reaction, the form of
    c - (1/2) div b."""
    t = element_table(mesh, coeffs)
    d = mesh.dim
    n = mesh.n_interior
    bary, _ = quadrature_barycentric(d)
    vol = t.geom.volume
    w = t.quad_weights
    G = t.geom.grad_basis
    GT = np.swapaxes(G, -1, -2)

    local_D = vol[:, None, None] * (G @ t.D_K @ GT)
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
    return {
        "A": build_csr(n, n, rows, cols, local_A[keep]),
        "B": build_csr(n, n, rows, cols, local_B[keep]),
        "B_lumped": b_lumped,
        "A_diffusion": build_csr(n, n, rows, cols, local_D[keep]),
        "effective_reaction": build_csr(n, n, rows, cols, local_eff[keep]),
    }


def broadcast_coefficient_stats(coeffs, pts, w, X) -> tuple:
    """(D_K, b_sup, c_sup) of elements with quadrature nodes pts (N, q, d),
    weights w (N, q) and vertices X (N, d+1, d), every coefficient first
    broadcast to all nodes and vertices and only then averaged or reduced,
    in the node order of a per-element sum."""
    d = X.shape[-1]
    D = np.broadcast_to(np.asarray(coeffs.diffusion(pts), dtype=np.float64),
                        pts.shape[:-1] + (d, d))
    total = sum(w[..., q, None, None] * D[..., q, :, :] for q in range(w.shape[-1]))
    samples = np.concatenate([pts, X], axis=-2)
    b = np.broadcast_to(np.asarray(coeffs.convection(samples), dtype=np.float64),
                        samples.shape)
    c = np.broadcast_to(np.asarray(coeffs.reaction(samples), dtype=np.float64),
                        samples.shape[:-1])
    return (total / w.sum(axis=-1)[..., None, None],
            np.linalg.norm(b, axis=-1).max(axis=-1), np.abs(c).max(axis=-1))


def _angle(c: float) -> float:
    a = math.acos(min(max(c, -1.0), 1.0))
    return min(max(a, _CLAMP), math.pi - _CLAMP)


def loop_nonobtuse(mesh, coeffs) -> list[tuple]:
    """(alpha_max, bound or None, pass_weak, pass_strict) per element."""
    d = mesh.dim
    out = []
    for K in range(mesh.n_elements):
        e = _loop_element(mesh, coeffs, K)
        c_min = min(float(e["cos"][j, k]) for j, k in itertools.combinations(range(d + 1), 2))
        alpha = _angle(c_min)
        h, lam = e["diam"], e["lam_min"]
        arg = (h * e["b_sup"] / (lam * (d + 1))
               + h * h * e["c_sup"] / (lam * (d + 1) * (d + 2)))
        if arg > 1.0:
            out.append((alpha, None, False, False))
        else:
            bound = math.acos(arg)
            out.append((alpha, bound, alpha <= bound, alpha < bound))
    return out


def loop_delaunay(mesh, coeffs) -> list[tuple]:
    """(edge, (K, K'), lhs, theta, lhs_theta_free, pass_weak, pass_strict)
    per internal edge of a 2D mesh, in sorted edge order."""
    patches: dict = {}
    for k, elem in enumerate(mesh.elements):
        for a, b in itertools.combinations(sorted(elem.tolist()), 2):
            patches.setdefault((a, b), []).append(k)
    data = {}

    def element(K):
        if K not in data:
            data[K] = _loop_element(mesh, coeffs, K)
        return data[K]

    def facing(K, edge):
        elem = mesh.elements[K].tolist()
        return float(element(K)["cos"][elem.index(edge[0]), elem.index(edge[1])])

    def cot(c):
        return c / max(math.sqrt(max(1.0 - c * c, 0.0)), _CLAMP)

    def arccot(x):
        return 0.5 * math.pi - math.atan(x)

    out = []
    for edge, elems in sorted(patches.items()):
        if len(elems) != 2:
            continue
        K, Kp = elems
        eK, eKp = element(K), element(Kp)
        cK, cKp = facing(K, edge), facing(Kp, edge)
        detK = float(np.linalg.det(eK["D_K"]))
        detKp = float(np.linalg.det(eKp["D_K"]))
        hK, hKp = eK["diam"], eKp["diam"]
        theta = (hK * eK["b_sup"] / 3 + hK * hK * eK["c_sup"] / 12
                 + hKp * eK["b_sup"] / 3 + hKp * hKp * eK["c_sup"] / 12)

        def lhs(th):
            t1 = arccot(math.sqrt(detKp / detK) * cot(cKp) - 2.0 * th / math.sqrt(detK))
            t2 = arccot(math.sqrt(detK / detKp) * cot(cK) - 2.0 * th / math.sqrt(detKp))
            return 0.5 * (_angle(cK) + _angle(cKp) + t1 + t2)

        val = lhs(theta)
        out.append((edge, (K, Kp), val, theta, lhs(0.0), val <= math.pi, val < math.pi))
    return out


# ---------------------------------------------------------------------------
# value-by-value reference for the VTK writer and the Triangle parser
# ---------------------------------------------------------------------------

def loop_write_vtk(path, mesh, point_values, name: str = "principal") -> None:
    """Legacy ASCII VTK unstructured grid, one formatted value at a time."""
    lines = ["# vtk DataFile Version 3.0",
             f"eigenfem {name} on {mesh.label}",
             "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    for v in mesh.vertices:
        coords = list(v) + [0.0] * (3 - mesh.dim)
        lines.append(" ".join(repr(float(c)) for c in coords))
    npe = mesh.dim + 1
    lines.append(f"CELLS {mesh.n_elements} {mesh.n_elements * (npe + 1)}")
    for e in mesh.elements:
        lines.append(" ".join([str(npe)] + [str(int(i)) for i in e]))
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend([str({2: 5, 3: 10}[mesh.dim])] * mesh.n_elements)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append(f"SCALARS {name} double 1")
    lines.append("LOOKUP_TABLE default")
    for val in point_values:
        lines.append(repr(float(val)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _loop_data_lines(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            yield body.split()


def loop_parse_node(text: str):
    """(vertices, boundary, index_base) of .node text, one field at a time."""
    lines = _loop_data_lines(text)
    n_v, dim, n_attr, marker_flag = (int(tok) for tok in next(lines))
    rows = list(lines)
    if len(rows) != n_v:
        raise MeshError(f".node header promises {n_v} vertices, found {len(rows)}")
    want = 1 + 2 + n_attr + 1
    ids = np.empty(n_v, dtype=np.int64)
    coords = np.empty((n_v, 2), dtype=np.float64)
    markers = np.empty(n_v, dtype=np.int64)
    for r, toks in enumerate(rows):
        if len(toks) != want:
            raise MeshError(f".node line {r + 2}: expected {want} fields, got {len(toks)}")
        ids[r] = int(toks[0])
        coords[r] = [float(toks[1]), float(toks[2])]
        markers[r] = int(toks[-1])
    base = int(ids.min())
    order = np.argsort(ids)
    return coords[order], markers[order] != 0, base


def loop_parse_ele(text: str, base: int) -> np.ndarray:
    """0-based (n, 3) elements of .ele text, one field at a time."""
    lines = _loop_data_lines(text)
    n_e, _, n_attr = (int(tok) for tok in next(lines))
    rows = list(lines)
    want = 1 + 3 + n_attr
    elems = np.empty((n_e, 3), dtype=np.int64)
    for r, toks in enumerate(rows):
        if len(toks) != want:
            raise MeshError(f".ele line {r + 2}: expected {want} fields, got {len(toks)}")
        elems[r] = [int(toks[1]) - base, int(toks[2]) - base, int(toks[3]) - base]
    return elems


def loop_z_matrix_check(A) -> tuple[bool, tuple | None]:
    """(passed, first violation) of the Z-matrix sign check.

    A is canonical CSR (sorted indices, no duplicates); the loop visits its
    entries in row-major order and stops at the first diagonal entry below
    -1e-14 scale or off-diagonal entry above 1e-14 scale.
    """
    scale = float(np.abs(A.data).max()) if A.nnz else 0.0
    tol = 1e-14 * scale
    indptr, indices, data = A.indptr, A.indices, A.data
    for i in range(A.shape[0]):
        for p in range(indptr[i], indptr[i + 1]):
            j = int(indices[p])
            v = float(data[p])
            if (v < -tol) if i == j else (v > tol):
                return False, (i, j, v)
    return True, None


def dense_m_matrix_oracle(A) -> bool:
    """Whether the sparse matrix A is a nonsingular M-matrix.

    A Z-matrix is a nonsingular M-matrix exactly when it is invertible with
    an entrywise nonnegative inverse (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, 1994, ch. 6, Thm 2.3).  The
    sign pattern is loop_z_matrix_check's; the inverse is LAPACK's dense
    one, and a singular matrix is not an M-matrix.
    """
    if not loop_z_matrix_check(A)[0]:
        return False
    try:
        inv = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(inv >= 0.0))


@dataclass(frozen=True)
class PerronOracle:
    """Dense ground truth for the Perron pair of A^{-1} B."""

    inverse_positive: bool
    perron_value: float
    perron_vector_positive: bool
    converged: bool
    iterations: int


def perron_oracle(A, B, n_limit: int = 400, max_iter: int = 20000,
                  tol: float = 1e-12) -> PerronOracle:
    """Compute the Perron pair of A^{-1} B by dense inversion + power iteration.

    For small sparse systems only: n above n_limit is rejected.
    inverse_positive reports whether every entry of the dense inverse
    exceeds 1e-14 times the largest entry magnitude.  The dominant
    eigenvalue of A^{-1} B is the reciprocal of the smallest generalized
    eigenvalue of (A, B).
    """
    n = A.shape[0]
    if n > n_limit:
        raise ValueError(f"perron_oracle limited to n <= {n_limit}, got {n}")
    try:
        Ainv = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is numerically singular") from exc
    scale = float(np.abs(Ainv).max())
    inverse_positive = bool(Ainv.min() > 1e-14 * scale)

    T = Ainv @ B.toarray()

    x = np.ones(n) / np.sqrt(n)
    mu = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        y = T @ x
        mu = float(x @ y)
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            break
        resid = float(np.linalg.norm(y - mu * x))
        x = y / norm_y
        if resid <= tol * max(abs(mu), 1e-300):
            converged = True
            break

    amax = float(np.abs(x).max())
    positive = bool(x.min() > 1e-14 * amax) or bool((-x).min() > 1e-14 * amax)
    return PerronOracle(inverse_positive, mu, positive, converged, it)
