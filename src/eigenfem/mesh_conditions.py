"""Sufficient mesh conditions for the stiffness matrix to be an M-matrix.

Two conditions are evaluated per problem and mesh:

* nonobtuse: for every element, the largest dihedral angle in the D^{-1}
  metric must stay below arccos(h_K b_sup / (lam_min (d+1))
  + h_K^2 c_sup / (lam_min (d+1)(d+2))); weak means <=, strict means <.
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

from .coefficients import ElementTable, ProblemCoefficients, element_table
from .element_geometry import (ANGLE_CLAMP, angle_from_cos, check_spd,
                               metric_altitudes, min_cosine, quadrature_average,
                               quadrature_points)
from .mesh import MeshEdges, SimplicialMesh, interior_connectivity, mesh_edges

# Slack used when comparing assembled entries against their analytic bounds.
BOUND_SLACK = 1e-10
DOMINATED = "convection/reaction dominates at this h"


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
class ElementCondition:
    """Nonobtuse-condition record for one element."""

    element: int
    alpha_max: float
    rhs_bound: float | None
    pass_weak: bool
    pass_strict: bool
    reason: str = ""


@dataclass(frozen=True)
class EdgeCondition:
    """Delaunay-type record for one internal edge."""

    edge: tuple[int, int]
    elements: tuple[int, int]
    lhs: float
    theta: float
    lhs_theta_free: float
    pass_weak: bool
    pass_strict: bool


@dataclass(frozen=True)
class NonobtuseReport:
    per_element: list
    alpha_max_metric: float
    passed_weak: bool
    passed_strict: bool


@dataclass(frozen=True)
class DelaunayReport:
    per_edge: list
    alpha_sum_metric: float
    passed_weak: bool
    passed_strict: bool


@dataclass(frozen=True)
class ConditionReport:
    """Combined verdicts of both mesh conditions plus connectivity."""

    per_element: list
    per_edge: list
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


def _nonobtuse(mesh: SimplicialMesh, t: ElementTable) -> NonobtuseReport:
    d = mesh.dim
    alpha = angle_from_cos(min_cosine(t.cosines))
    h = t.geom.diameter
    arg = (h * t.b_sup / (t.lambda_min_DK * (d + 1))
           + h * h * t.c_sup / (t.lambda_min_DK * (d + 1) * (d + 2)))
    dominated = arg > 1.0
    bound = np.arccos(np.where(dominated, 1.0, arg))
    weak = ~dominated & (alpha <= bound)
    strict = ~dominated & (alpha < bound)
    per_element = list(map(
        ElementCondition, range(len(alpha)), alpha.tolist(),
        np.where(dominated, None, bound).tolist(), weak.tolist(), strict.tolist(),
        np.where(dominated, DOMINATED, "").tolist()))
    return NonobtuseReport(per_element, float(alpha.max(initial=0.0)),
                           bool(weak.all()), bool(strict.all()))


def check_nonobtuse(mesh: SimplicialMesh, coeffs: ProblemCoefficients) -> NonobtuseReport:
    """Evaluate the metric nonobtuse angle condition for every element."""
    return _nonobtuse(mesh, element_table(mesh, coeffs))


def _local(mesh: SimplicialMesh, K: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Position of vertex v[i] in the vertex list of element K[i]."""
    return np.argmax(mesh.elements[K] == v[:, None], axis=1)


def _internal_edges(mesh: SimplicialMesh, t: ElementTable, edges: MeshEdges):
    """Edges held by two elements K < K': edge ids, K, K', and the cosines
    of the metric angles of K and K' facing the edge (the dihedral angle
    between the two faces opposite the edge's endpoints)."""
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


def _delaunay(mesh: SimplicialMesh, t: ElementTable, edges: MeshEdges) -> DelaunayReport:
    if mesh.dim != 2:
        raise NotImplementedError("the Delaunay-type condition is 2D only")
    d = 2
    internal, K, Kp, cK, cKp = _internal_edges(mesh, t, edges)
    aK, aKp = angle_from_cos(cK), angle_from_cos(cKp)
    cotK, cotKp = _cot_from_cos(cK), _cot_from_cos(cKp)
    det_D = np.linalg.det(t.D_K)
    detK, detKp = det_D[K], det_D[Kp]
    h = t.geom.diameter
    theta = _theta(t.b_sup[K], t.c_sup[K], h[K], h[Kp], d)
    lhs = _delaunay_lhs(aK, cotK, detK, aKp, cotKp, detKp, theta)
    lhs_free = _delaunay_lhs(aK, cotK, detK, aKp, cotKp, detKp, 0.0)
    weak, strict = lhs <= math.pi, lhs < math.pi
    per_edge = list(map(
        EdgeCondition, map(tuple, edges.vertices[internal].tolist()),
        zip(K.tolist(), Kp.tolist()), lhs.tolist(), theta.tolist(),
        lhs_free.tolist(), weak.tolist(), strict.tolist()))
    return DelaunayReport(per_edge, float(lhs_free.max(initial=0.0)),
                          bool(weak.all()), bool(strict.all()))


def check_delaunay_type(mesh: SimplicialMesh, coeffs: ProblemCoefficients) -> DelaunayReport:
    """Evaluate the Delaunay-type condition on every internal edge (2D)."""
    return _delaunay(mesh, element_table(mesh, coeffs), mesh_edges(mesh))


def evaluate_conditions(mesh: SimplicialMesh, coeffs: ProblemCoefficients, *,
                        table: ElementTable | None = None) -> ConditionReport:
    """Run both mesh conditions and interior connectivity in one pass, on
    element_table(mesh, coeffs) unless a table is passed."""
    t = element_table(mesh, coeffs) if table is None else table
    nob = _nonobtuse(mesh, t)
    if mesh.dim == 2:
        del_rep = _delaunay(mesh, t, mesh_edges(mesh))
        per_edge = del_rep.per_edge
        alpha_sum = del_rep.alpha_sum_metric
        dweak: bool | None = del_rep.passed_weak
        dstrict: bool | None = del_rep.passed_strict
    else:
        per_edge = []
        alpha_sum = None
        dweak = None
        dstrict = None
    conn = interior_connectivity(mesh)
    return ConditionReport(
        per_element=nob.per_element,
        per_edge=per_edge,
        alpha_max_metric=nob.alpha_max_metric,
        alpha_sum_metric=alpha_sum,
        nonobtuse_weak=nob.passed_weak,
        nonobtuse_strict=nob.passed_strict,
        delaunay_weak=dweak,
        delaunay_strict=dstrict,
        interiorly_connected=conn.connected,
    )


# ---------------------------------------------------------------------------
# per-entry bounds on the assembled off-diagonals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeBound:
    """Assembled entries and analytic bounds for one interior-interior edge."""

    edge: tuple[int, int]
    a_jk: float
    a_kj: float
    bound_general: float
    bound_2d: float | None
    violated: bool


def entry_bound_report(mesh: SimplicialMesh, coeffs: ProblemCoefficients,
                       system) -> list[EdgeBound]:
    """Check assembled off-diagonal entries against their analytic bounds.

    For each mesh edge whose endpoints are both interior vertices, the
    entry a_jk (and a_kj) is bounded by a patch sum involving the worst
    metric angle per element, and in 2D additionally by the sharper
    cotangent form.  Violations indicate an assembly or geometry bug, not
    a mesh-quality problem.
    """
    t, edges, d = element_table(mesh, coeffs), mesh_edges(mesh), mesh.dim
    n_edges = len(edges.vertices)

    # General bound: a sum over the patch of each edge, one term per element.
    h = t.geom.diameter
    term = (-min_cosine(t.cosines)
            + h * t.b_sup / ((d + 1) * t.lambda_min_DK)
            + h * h * t.c_sup / ((d + 1) * (d + 2) * t.lambda_min_DK))
    alt = metric_altitudes(t.geom, t.D_K)
    edge_of = np.repeat(np.arange(n_edges), np.diff(edges.offsets))
    el, (j, k) = edges.elements, edges.vertices[edge_of].T
    per_incidence = (t.geom.volume[el] / (alt[el, _local(mesh, el, j)]
                                          * alt[el, _local(mesh, el, k)]) * term[el])
    bound_gen = np.bincount(edge_of, weights=per_incidence, minlength=n_edges)

    bound_2d = np.full(n_edges, np.nan)
    if d == 2:
        internal, K, Kp, cK, cKp = _internal_edges(mesh, t, edges)
        sqrt_det = np.sqrt(np.linalg.det(t.D_K))
        bound_2d[internal] = (
            -0.5 * sqrt_det[K] * _cot_from_cos(cK)
            - 0.5 * sqrt_det[Kp] * _cot_from_cos(cKp)
            + h[K] * t.b_sup[K] / (d + 1)
            + h[K] * h[K] * t.c_sup[K] / ((d + 1) * (d + 2))
            + h[Kp] * t.b_sup[Kp] / (d + 1)
            + h[Kp] * h[Kp] * t.c_sup[Kp] / ((d + 1) * (d + 2))
        )

    ends = mesh.interior_index[edges.vertices]
    inner = np.flatnonzero(np.all(ends >= 0, axis=1))
    ij, ik = ends[inner, 0], ends[inner, 1]
    a_jk = np.asarray(system.A[ij, ik]).ravel()
    a_kj = np.asarray(system.A[ik, ij]).ravel()
    a_max = np.maximum(a_jk, a_kj)
    gen, b2 = bound_gen[inner], bound_2d[inner]
    violated = a_max > gen + BOUND_SLACK * np.maximum(1.0, np.abs(gen))
    violated |= a_max > b2 + BOUND_SLACK * np.maximum(1.0, np.abs(b2))
    return [
        EdgeBound(tuple(e), *vals, None if math.isnan(b) else b, v)
        for e, *vals, b, v in zip(edges.vertices[inner].tolist(), a_jk.tolist(),
                                   a_kj.tolist(), gen.tolist(), b2.tolist(),
                                   violated.tolist())
    ]


# ---------------------------------------------------------------------------
# M-uniformity measures
# ---------------------------------------------------------------------------

_REF_SIMPLEX_2D = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
_REF_SIMPLEX_3D = np.array([
    [1.0, 0.5, 0.5],
    [0.0, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 6.0],
    [0.0, 0.0, math.sqrt(6.0) / 3.0],
])


@dataclass(frozen=True)
class MUniformity:
    equidistribution_per_K: np.ndarray
    alignment_per_K: np.ndarray


def m_uniformity(mesh: SimplicialMesh, metric) -> MUniformity:
    """Equidistribution and alignment scores of a mesh under a metric field.

    The reference element is the unit-edge equilateral simplex, so a_K = 1
    exactly when the element is equilateral in the metric; e_K = 1 when
    metric volume is equidistributed.  Both are ideal at 1 and a_K >= 1
    always (arithmetic-geometric mean inequality on the eigenvalues of the
    transformed metric).  metric(x) receives one point (d,) per call.
    """
    d = mesh.dim
    ref = _REF_SIMPLEX_2D if d == 2 else _REF_SIMPLEX_3D
    N = mesh.n_elements

    X = mesh.vertices[mesh.elements]
    pts, w = quadrature_points(X)
    vols = w.sum(axis=-1)
    Mq = check_spd(np.array([metric(p) for p in pts.reshape(-1, d)]).reshape(pts.shape + (d,)),
                   "metric tensor")
    M_K = quadrature_average(w, Mq)

    sqrt_dets = np.sqrt(np.linalg.det(M_K))
    sigma_h = float(np.sum(vols * sqrt_dets))
    e_K = vols * sqrt_dets * N / sigma_h

    V = np.swapaxes(X[:, 1:] - X[:, :1], 1, 2)
    F = V @ np.linalg.inv(ref)
    Jm = np.swapaxes(F, 1, 2) @ M_K @ F
    a_K = np.trace(Jm, axis1=1, axis2=2) / (d * np.linalg.det(Jm) ** (1.0 / d))
    return MUniformity(e_K, a_K)
