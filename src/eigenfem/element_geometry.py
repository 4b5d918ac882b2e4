"""Per-element geometry: barycentric gradients, altitudes, metric angles.

The dihedral angle between two faces of a simplex, measured in the geometry
induced by the inverse of a constant SPD matrix D, is computed from the face
normals q_j via

    cos(angle_jk) = -(q_j' D q_k) / sqrt((q_j' D q_j)(q_k' D q_k)),

which equals the Euclidean dihedral angle of the image of the simplex under
the map x -> D^{-1/2} x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientError, MeshError

# Angles are clamped to [ANGLE_CLAMP, pi - ANGLE_CLAMP] so that degenerate
# metric data cannot produce 0 or pi exactly.
ANGLE_CLAMP = 1e-12
SYMMETRY_TOL = 1e-12
# A Cholesky pivot (squared diagonal of the factor) at most this times max|D|
# marks D singular: [[2, 2], [2, 2]] has a last pivot of eps * max|D|, not 0.
SPD_PIVOT_TOL = 16 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class ElementGeometry:
    """Affine geometry of one positively oriented simplex, or of a batch.

    Shapes are for one simplex; a batch adds its leading axes to each field.

    Attributes
    ----------
    volume : float
        d-dimensional measure.
    diameter : float
        Longest edge.
    grad_basis : (d+1, d) array
        Constant gradients of the barycentric (hat) basis functions.
    inner_normals : (d+1, d) array
        Unit face normals; row j is normal to the face opposite vertex j
        and oriented so that grad_basis[j] == -inner_normals[j] / altitude[j].
    altitudes_euclid : (d+1,) array
        Euclidean distance from vertex j to its opposite face,
        equal to 1 / |grad_basis[j]|.
    """

    volume: float | np.ndarray
    diameter: float | np.ndarray
    grad_basis: np.ndarray
    inner_normals: np.ndarray
    altitudes_euclid: np.ndarray


def simplex_diameters(X: np.ndarray) -> np.ndarray:
    """Longest edge of each simplex with vertex arrays X ((..., d+1, d))."""
    a, b = np.triu_indices(X.shape[-2], 1)
    return np.linalg.norm(X[..., a, :] - X[..., b, :], axis=-1).max(axis=-1)


def simplex_geometry(X: np.ndarray) -> ElementGeometry:
    """Geometry of a batch of positively oriented simplices with vertex
    arrays X ((..., d+1, d)), with one determinant and inverse call."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[-1]
    if X.ndim < 2 or X.shape[-2] != d + 1:
        raise MeshError(f"expected {d + 1} vertices of dimension {d}")
    V = np.swapaxes(X[..., 1:, :] - X[..., :1, :], -1, -2)
    det = np.linalg.det(V)
    if np.any(det <= 0.0):
        raise MeshError("element is degenerate or negatively oriented")
    volume = det / math.factorial(d)

    # Barycentric coordinates lam_{1..d} solve V lam = x - v0, so their
    # gradients are the rows of V^{-1}; lam_0 = 1 - sum of the others.
    Vinv = np.linalg.inv(V)
    grads = np.concatenate([-Vinv.sum(axis=-2, keepdims=True), Vinv], axis=-2)

    norms = np.linalg.norm(grads, axis=-1)
    altitudes = 1.0 / norms
    normals = -grads / norms[..., None]
    diameter = simplex_diameters(X)

    for arr in (grads, normals, altitudes):
        arr.setflags(write=False)
    return ElementGeometry(volume, diameter, grads, normals, altitudes)


def _spd_terms_2x2(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max|D|, max|D - D'| and the smaller Cholesky pivot of (D + D') / 2 for
    2 x 2 matrices D (..., 2, 2), entry by entry, with the values of the
    general path.  The pivots follow LAPACK's unblocked recurrence
    l00 = sqrt(s00), l10 = s10 * (1 / l00), l11 = sqrt(s11 - l10**2); where
    one is not positive, as np.linalg.cholesky fails there, it is 0 or NaN."""
    d00, d01, d10, d11 = D[..., 0, 0], D[..., 0, 1], D[..., 1, 0], D[..., 1, 1]
    absmax = np.maximum(np.maximum(np.abs(d00), np.abs(d01)),
                        np.maximum(np.abs(d10), np.abs(d11)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        l00 = np.sqrt(0.5 * (d00 + d00))
        l10 = (0.5 * (d10 + d01)) * (1.0 / l00)
        pivot = np.minimum(l00, np.sqrt(0.5 * (d11 + d11) - l10 * l10))
    return absmax, np.abs(d01 - d10), pivot


def check_spd(D: np.ndarray, what: str = "diffusion matrix") -> np.ndarray:
    """Validate finiteness, symmetry (within 1e-12 relative) and positive
    definiteness (every Cholesky pivot above SPD_PIVOT_TOL * max|D|) of one
    matrix (d, d) or of every matrix in a stack (..., d, d)."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim < 2 or D.shape[-1] != D.shape[-2]:
        raise CoefficientError(f"{what} must be square, got shape {D.shape}")
    if not np.isfinite(D).all():
        raise CoefficientError(f"{what} has non-finite entries")
    if D.shape[-1] == 2:
        absmax, asym, pivot = _spd_terms_2x2(D)
    else:
        DT = np.swapaxes(D, -1, -2)
        absmax = np.abs(D).max(axis=(-2, -1))
        asym = np.abs(D - DT).max(axis=(-2, -1))
        pivot = None
    if np.any(asym > SYMMETRY_TOL * np.maximum(1.0, absmax)):
        raise CoefficientError(f"{what} is not symmetric")
    if pivot is None:
        try:
            L = np.linalg.cholesky(0.5 * (D + DT))
        except np.linalg.LinAlgError:
            raise CoefficientError(f"{what} is not positive definite") from None
        pivot = np.diagonal(L, axis1=-2, axis2=-1).min(axis=-1)
    # a NaN pivot fails the comparison too
    if not np.all(pivot ** 2 > SPD_PIVOT_TOL * absmax):
        raise CoefficientError(f"{what} is not positive definite")
    return D


def metric_angle_cosines(geom: ElementGeometry, D: np.ndarray) -> np.ndarray:
    """(d+1, d+1) matrix of metric dihedral-angle cosines between face pairs.

    Entry (j, k), j != k, is the cosine of the angle between faces j and k
    in the D^{-1} geometry; the diagonal is set to 1.  For a batch geometry
    and a stack of matrices D (..., d, d) the result is (..., d+1, d+1).
    """
    D = check_spd(D)
    Q = geom.inner_normals
    G = Q @ D @ np.swapaxes(Q, -1, -2)
    s = np.sqrt(np.diagonal(G, axis1=-2, axis2=-1))
    C = -G / (s[..., :, None] * s[..., None, :])
    diag = np.arange(Q.shape[-2])
    C[..., diag, diag] = 1.0
    return np.clip(C, -1.0, 1.0)


def angle_from_cos(c: np.ndarray) -> np.ndarray:
    """Angles of the given cosines, clamped to [ANGLE_CLAMP, pi - ANGLE_CLAMP]."""
    return np.clip(np.arccos(np.clip(c, -1.0, 1.0)), ANGLE_CLAMP, math.pi - ANGLE_CLAMP)


def min_cosine(C: np.ndarray) -> np.ndarray:
    """Smallest off-diagonal entry of cosine matrices (..., d+1, d+1),
    the cosine of each element's largest angle."""
    j, k = np.triu_indices(C.shape[-1], 1)
    return C[..., j, k].min(axis=-1)


def metric_altitudes(geom: ElementGeometry, D: np.ndarray) -> np.ndarray:
    """Altitudes of the element in the D^{-1} geometry.

    The altitude from vertex j scales like the Euclidean one divided by the
    length of the unit gradient direction under D, so that the stiffness
    identity below holds exactly.  Batches work as in metric_angle_cosines.
    """
    D = check_spd(D)
    Q = geom.inner_normals
    stretch = np.sqrt(np.einsum("...jd,...de,...je->...j", Q, D, Q))
    return geom.altitudes_euclid / stretch


# ---------------------------------------------------------------------------
# degree-2 quadrature on simplices
# ---------------------------------------------------------------------------

_TET_A = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
_TET_B = (5.0 - math.sqrt(5.0)) / 20.0

_BARY_2D = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])
_BARY_3D = np.array([
    [_TET_A, _TET_B, _TET_B, _TET_B],
    [_TET_B, _TET_A, _TET_B, _TET_B],
    [_TET_B, _TET_B, _TET_A, _TET_B],
    [_TET_B, _TET_B, _TET_B, _TET_A],
])


def quadrature_barycentric(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric nodes and reference weights of the degree-2 rule.

    2D: the three edge midpoints with weight 1/3 each.  3D: the symmetric
    four-point rule with weight 1/4 each.  Weights sum to 1 and multiply the
    element volume.
    """
    if dim == 2:
        return _BARY_2D, np.full(3, 1.0 / 3.0)
    if dim == 3:
        return _BARY_3D, np.full(4, 0.25)
    raise ValueError(f"no quadrature rule for dimension {dim}")


def quadrature_average(w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Average sum_q w_q F_q / sum_q w_q of matrices F (..., q, d, d) with
    weights w (..., q), summed node by node as a scalar loop would."""
    total = sum(w[..., q, None, None] * F[..., q, :, :] for q in range(w.shape[-1]))
    return total / w.sum(axis=-1)[..., None, None]
