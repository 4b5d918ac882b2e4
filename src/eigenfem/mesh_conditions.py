"""Sufficient mesh conditions for the stiffness matrix to be an M-matrix.

Two conditions are evaluated per problem and mesh:

* nonobtuse: for every element, the largest dihedral angle in the D^{-1}
  metric must stay below arccos(h_K b_sup / (lam_min (d+1))
  + h_K^2 c_sup / (lam_min (d+1)(d+2))); weak means <=, strict means <,
  both graded within TIE_TOL so that a rounding tie passes weak only.
  A strict pass on an interiorly connected mesh certifies an irreducible
  M-matrix.

* Delaunay-type (2D): for every internal edge, half the sum of the two
  facing angles and two arccot correction terms (with the convection and
  reaction entering through Theta) must stay below pi.

Both are evaluated exactly as printed, including the asymmetry of Theta:
all four of its norm factors are taken over the first element K of the
edge pair, not K'.  Element order (by element id) fixes which is K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ElementTable
from .element_geometry import ANGLE_CLAMP, angle_from_cos, min_cosine
from .mesh import SimplicialMesh, interior_connectivity

DOMINATED = "convection/reaction dominates at this h"
# Angles and angle sums within TIE_TOL (radians) of their bound are ties,
# graded weak only: rounded grid coordinates put a right angle a few ulp
# on either side of pi/2.
TIE_TOL = 64 * np.finfo(float).eps * math.pi


def _arccot(x: np.ndarray) -> np.ndarray:
    """Inverse cotangent with range (0, pi), continuous at x = 0."""
    return 0.5 * np.pi - np.arctan(x)


def _cot_from_cos(c: np.ndarray) -> np.ndarray:
    """Cotangent of an angle in (0, pi) given its cosine.

    Computed directly from the cosine so that a right angle (c = 0) yields
    an exact zero; the sine is floored to keep degenerate angles finite.
    """
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    return c / np.maximum(s, ANGLE_CLAMP)


@dataclass(frozen=True)
class NonobtuseReport:
    """Nonobtuse condition, one array entry per element.

    rhs_bound is NaN where convection/reaction dominates (the arccos
    argument exceeds 1); such elements pass neither test.
    """

    alpha_max: np.ndarray
    rhs_bound: np.ndarray
    pass_weak: np.ndarray
    pass_strict: np.ndarray
    alpha_max_metric: float
    passed_weak: bool
    passed_strict: bool


@dataclass(frozen=True)
class DelaunayReport:
    """Delaunay-type condition, one array entry per internal edge: its
    vertices (E, 2) and its element pair K < K' (E, 2)."""

    edges: np.ndarray
    elements: np.ndarray
    lhs: np.ndarray
    theta: np.ndarray
    lhs_theta_free: np.ndarray
    pass_weak: np.ndarray
    pass_strict: np.ndarray
    alpha_sum_metric: float
    passed_weak: bool
    passed_strict: bool


@dataclass(frozen=True)
class ConditionReport:
    """Combined verdicts of both mesh conditions plus connectivity; the
    Delaunay-type report is None in 3D."""

    nonobtuse: NonobtuseReport
    delaunay: DelaunayReport | None
    alpha_max_metric: float
    alpha_sum_metric: float | None
    nonobtuse_weak: bool
    nonobtuse_strict: bool
    delaunay_weak: bool | None
    delaunay_strict: bool | None
    interiorly_connected: bool

    @property
    def strict_pass(self) -> bool:
        """Certified path: a strict condition plus interior connectivity."""
        cond = self.nonobtuse_strict or bool(self.delaunay_strict)
        return cond and self.interiorly_connected

    @property
    def weak_pass(self) -> bool:
        return self.nonobtuse_weak or bool(self.delaunay_weak)


def _grade(x: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray]:
    """Weak (x <= bound) and strict (x < bound) verdicts, both within
    TIE_TOL, so a value that rounding leaves next to its bound passes weak
    and never strict.  A NaN bound fails both."""
    return x <= bound + TIE_TOL, x < bound - TIE_TOL


def _nonobtuse(mesh: SimplicialMesh, t: ElementTable) -> NonobtuseReport:
    d = mesh.dim
    alpha = angle_from_cos(min_cosine(t.cosines))
    h = t.geom.diameter
    arg = (h * t.b_sup / (t.lambda_min_DK * (d + 1))
           + h * h * t.c_sup / (t.lambda_min_DK * (d + 1) * (d + 2)))
    bound = np.where(arg > 1.0, np.nan, np.arccos(np.minimum(arg, 1.0)))
    weak, strict = _grade(alpha, bound)
    return NonobtuseReport(alpha, bound, weak, strict, float(alpha.max(initial=0.0)),
                           bool(weak.all()), bool(strict.all()))


def _local(mesh: SimplicialMesh, K: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Position of vertex v[i] in the vertex list of element K[i]."""
    return np.argmax(mesh.elements[K] == v[:, None], axis=1)


def _internal_edges(mesh: SimplicialMesh, t: ElementTable):
    """Edges held by two elements K < K': edge ids, K, K', and the cosines
    of the metric angles of K and K' facing the edge (the dihedral angle
    between the two faces opposite the edge's endpoints)."""
    edges = mesh.edges
    internal = np.flatnonzero(np.diff(edges.offsets) == 2)
    K, Kp = edges.elements[edges.offsets[internal]], edges.elements[edges.offsets[internal] + 1]
    j, k = edges.vertices[internal].T
    cK, cKp = (t.cosines[E, _local(mesh, E, j), _local(mesh, E, k)] for E in (K, Kp))
    return internal, K, Kp, cK, cKp


def _theta(b_sup, c_sup, hK, hKp, d: int):
    """Convection/reaction perturbation of the Delaunay-type condition.

    All four norms are taken over the first element K, as printed in the
    source inequality (the companion entry bound uses K' norms instead).
    """
    return (hK * b_sup / (d + 1)
            + hK * hK * c_sup / ((d + 1) * (d + 2))
            + hKp * b_sup / (d + 1)
            + hKp * hKp * c_sup / ((d + 1) * (d + 2)))


def _delaunay_lhs(aK, cotK, detK, aKp, cotKp, detKp, theta):
    t1 = _arccot(np.sqrt(detKp / detK) * cotKp - 2.0 * theta / np.sqrt(detK))
    t2 = _arccot(np.sqrt(detK / detKp) * cotK - 2.0 * theta / np.sqrt(detKp))
    return 0.5 * (aK + aKp + t1 + t2)


def _delaunay(mesh: SimplicialMesh, t: ElementTable) -> DelaunayReport:
    d = 2
    internal, K, Kp, cK, cKp = _internal_edges(mesh, t)
    aK, aKp = angle_from_cos(cK), angle_from_cos(cKp)
    cotK, cotKp = _cot_from_cos(cK), _cot_from_cos(cKp)
    det_D = np.linalg.det(t.D_K)
    detK, detKp = det_D[K], det_D[Kp]
    h = t.geom.diameter
    theta = _theta(t.b_sup[K], t.c_sup[K], h[K], h[Kp], d)
    lhs = _delaunay_lhs(aK, cotK, detK, aKp, cotKp, detKp, theta)
    lhs_free = _delaunay_lhs(aK, cotK, detK, aKp, cotKp, detKp, 0.0)
    weak, strict = _grade(lhs, math.pi)
    return DelaunayReport(mesh.edges.vertices[internal], np.column_stack([K, Kp]), lhs, theta,
                          lhs_free, weak, strict, float(lhs_free.max(initial=0.0)),
                          bool(weak.all()), bool(strict.all()))


def evaluate_conditions(mesh: SimplicialMesh, table: ElementTable) -> ConditionReport:
    """Run both mesh conditions and interior connectivity in one pass on the
    element table of the mesh (element_table(mesh, coeffs), or the table of
    its assembled system).

    Raises ValueError when the table does not hold one entry per element.
    """
    if len(table.D_K) != mesh.n_elements:
        raise ValueError(f"element table holds {len(table.D_K)} elements, "
                         f"the mesh {mesh.n_elements}")
    nob = _nonobtuse(mesh, table)
    dela = _delaunay(mesh, table) if mesh.dim == 2 else None
    return ConditionReport(
        nonobtuse=nob,
        delaunay=dela,
        alpha_max_metric=nob.alpha_max_metric,
        alpha_sum_metric=dela and dela.alpha_sum_metric,
        nonobtuse_weak=nob.passed_weak,
        nonobtuse_strict=nob.passed_strict,
        delaunay_weak=dela and dela.passed_weak,
        delaunay_strict=dela and dela.passed_strict,
        interiorly_connected=interior_connectivity(mesh).connected,
    )
