"""Operator coefficients D, b, c and the built-in problem catalog.

A problem is the data of the operator  -div(D grad u) + b . grad u + c u
on a domain with homogeneous Dirichlet conditions.  D must be symmetric
positive definite pointwise and the pair (b, c) must satisfy
c - (1/2) div b >= 0, which is what makes the principal eigenvalue theory
work; element_table checks both at every quadrature node.  The divergence
of b is always supplied analytically, never differenced numerically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .element_geometry import (ElementGeometry, check_spd, metric_angle_cosines,
                               quadrature_average, quadrature_barycentric,
                               simplex_geometry)
from .errors import CoefficientError
from .mesh import SimplicialMesh

ASSUMPTION_TOL = 1e-12

Point = np.ndarray


@dataclass(frozen=True)
class ProblemCoefficients:
    """Coefficient functions of a single problem.

    Every callable takes points x of shape (..., d), one point (d,) or any
    stack of them, and is called once per stack: diffusion(x) returns
    (..., d, d) SPD matrices, convection(x) (..., d) vectors, reaction(x)
    and convection_divergence(x) (...) scalars.  Results are broadcast to
    those shapes, so a callable may return a constant whatever x holds.
    Each check and sup norm runs once on what the callable returned, before
    it is broadcast: a constant D costs one SPD check, not one per node.
    convection_is_zero declares b == 0 identically, which is what downstream
    symmetry checks (the variational principle) key on; it is declared, not
    sampled.
    """

    label: str
    dim: int
    diffusion: Callable[[Point], np.ndarray]
    convection: Callable[[Point], np.ndarray]
    reaction: Callable[[Point], float]
    convection_divergence: Callable[[Point], float]
    convection_is_zero: bool = False

    @property
    def is_symmetric(self) -> bool:
        return self.convection_is_zero


def _evaluate(fn: Callable, x: np.ndarray, shape: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """fn(x) broadcast to x's leading axes followed by shape, and the same
    result broadcast only as far as shape's trailing axes need (the array
    to check or reduce, one value per distinct entry)."""
    raw = np.asarray(fn(x), dtype=np.float64)
    full = np.broadcast_to(raw, x.shape[:-1] + shape)
    return full, np.broadcast_to(raw, np.broadcast_shapes(raw.shape, shape))


def _diffusion(coeffs: ProblemCoefficients, x: np.ndarray) -> np.ndarray:
    """diffusion(x) broadcast to (..., d, d), every returned matrix checked SPD."""
    d = x.shape[-1]
    full, raw = _evaluate(coeffs.diffusion, x, (d, d))
    check_spd(raw)
    return full


@dataclass(frozen=True)
class ElementTable:
    """Geometry and coefficient data of N elements, all held as arrays.

    D_K (N, d, d) is the quadrature average of the diffusion matrix over
    each element and lambda_min_DK, lambda_max_DK (N) its extreme
    eigenvalues; b_sup and c_sup (N) are sampled sup norms (quadrature
    nodes plus vertices).  geom is the batch geometry.  quad_points
    (N, q, d) and quad_weights (N, q) are the degree-2 rule, weights
    including volumes; convection_q (N, q, d), reaction_q and divergence_q
    (N, q) are the coefficients at those nodes.  Only the mesh conditions
    read the metric angles, so cosines is computed on first use and kept.
    """

    D_K: np.ndarray
    lambda_min_DK: np.ndarray
    lambda_max_DK: np.ndarray
    b_sup: np.ndarray
    c_sup: np.ndarray
    geom: ElementGeometry
    quad_points: np.ndarray
    quad_weights: np.ndarray
    convection_q: np.ndarray
    reaction_q: np.ndarray
    divergence_q: np.ndarray

    @cached_property
    def cosines(self) -> np.ndarray:
        """(N, d+1, d+1) metric dihedral-angle cosines under D_K."""
        return metric_angle_cosines(self.geom, self.D_K)


def _sym_eig_range(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of a stack of small symmetric matrices.

    The 2x2 case uses the closed form so that constant-coefficient problems
    get exact values; 3x3 falls back to the symmetric eigensolver.
    """
    if D.shape[-2:] == (2, 2):
        a, b, c = D[..., 0, 0], D[..., 0, 1], D[..., 1, 1]
        m = 0.5 * (a + c)
        r = np.hypot(0.5 * (a - c), b)
        return m - r, m + r
    w = np.linalg.eigvalsh(D)
    return w[..., 0], w[..., -1]


def _table(coeffs: ProblemCoefficients, X: np.ndarray) -> ElementTable:
    """ElementTable of the simplices with vertex arrays X ((N, d+1, d))."""
    d = X.shape[-1]
    geom = simplex_geometry(X)
    bary, wref = quadrature_barycentric(d)
    pts, w = bary @ X, wref * geom.volume[:, None]
    nq = len(wref)  # samples below are the nodes followed by the vertices

    D_K = quadrature_average(w, _diffusion(coeffs, pts))
    lam_min, lam_max = _sym_eig_range(D_K)
    if not np.all(lam_min > 0.0):  # also catches NaN
        raise CoefficientError("element-averaged diffusion matrix is not PD")

    samples = np.concatenate([pts, X], axis=-2)
    b, b_raw = _evaluate(coeffs.convection, samples, (d,))
    c, c_raw = _evaluate(coeffs.reaction, samples)
    div_b, _ = _evaluate(coeffs.convection_divergence, pts)
    eff = c[..., :nq] - 0.5 * div_b
    bad = np.argwhere(eff < -ASSUMPTION_TOL)
    if bad.size:
        at = tuple(bad[0])
        raise CoefficientError(f"c - 0.5 div b = {eff[at]} < 0 at point {pts[at].tolist()}")
    b_norm = np.broadcast_to(np.linalg.norm(b_raw, axis=-1), b.shape[:-1])
    return ElementTable(
        geom=geom, quad_points=pts, quad_weights=w,
        convection_q=b[..., :nq, :], reaction_q=c[..., :nq], divergence_q=div_b,
        D_K=D_K, lambda_min_DK=lam_min, lambda_max_DK=lam_max,
        b_sup=b_norm.max(axis=-1), c_sup=np.broadcast_to(np.abs(c_raw), c.shape).max(axis=-1),
    )


def element_table(mesh: SimplicialMesh, coeffs: ProblemCoefficients) -> ElementTable:
    """Geometry and coefficient data of every element of the mesh.

    Raises CoefficientError on a dimension mismatch, when a sampled
    diffusion matrix or an element-averaged one is not symmetric positive
    definite, or when c - (1/2) div b < -1e-12 at a quadrature node.
    """
    if coeffs.dim != mesh.dim:
        raise CoefficientError(
            f"coefficient dimension {coeffs.dim} != mesh dimension {mesh.dim}"
        )
    return _table(coeffs, mesh.vertices[mesh.elements])


# ---------------------------------------------------------------------------
# problem catalog
# ---------------------------------------------------------------------------

def _constant_problem(label: str, D: np.ndarray, b: np.ndarray, c: float) -> ProblemCoefficients:
    D = np.asarray(D, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    D.setflags(write=False)
    b.setflags(write=False)
    return ProblemCoefficients(
        label=label,
        dim=D.shape[0],
        diffusion=lambda x, D=D: D,
        convection=lambda x, b=b: b,
        reaction=lambda x, c=c: c,
        convection_divergence=lambda x: 0.0,
        convection_is_zero=bool(np.all(b == 0.0)),
    )


def _sym2(a, b, c) -> np.ndarray:
    """Stack of symmetric 2x2 matrices [[a, b], [b, c]] over the inputs' shape."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def _ex5_3_diffusion(x: Point) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _sym2(1.0 + 0.05 * np.cos(math.pi * x[..., 0]), 0.0,
                 1.0 + 0.05 * np.sin(math.pi * x[..., 1]))


def _ex5_3_convection(x: Point) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.stack([20.0 * (x[..., 1] - 0.5), -20.0 * (x[..., 0] - 0.5)], axis=-1)


def _ex5_4_diffusion(x: Point) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    s = x[..., 0] * x[..., 1] * math.pi
    return _sym2(100.0 * (1.0 - 0.5 * np.sin(s)), 0.0, 1.0 + 0.5 * np.cos(s))


def _ex5_5_diffusion(x: Point, k: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    sx, sy = np.sin(x[..., 0]), np.sin(x[..., 1])
    theta = math.pi * sx * sy
    ct, st = np.cos(theta), np.sin(theta)
    d1 = k * (1.0 - 0.5 * sx * sy)
    d2 = 1.0 + 0.5 * np.cos(x[..., 0]) * np.cos(x[..., 1])
    # R diag(d1, d2) R^T with R the rotation by theta.
    return _sym2(d1 * ct * ct + d2 * st * st, (d1 - d2) * ct * st,
                 d1 * st * st + d2 * ct * ct)


CATALOG_NAMES = ("ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5k10", "ex5_5k100", "laplace")

# Default reference principal eigenvalues for convergence studies
# (reported fine-mesh values, not ground truth; laplace is analytic).
# The ex5_5 values come from adaptive meshes on a punctured domain and
# are not reachable on the structured unit-square families.
REFERENCE_VALUES = {
    "ex5_1": 150.288,
    "ex5_2": 1401.39,
    "ex5_3": 21.0714,
    "ex5_4": 687.666,
    "ex5_5k10": 170.422,
    "ex5_5k100": 1020.15,
    "laplace": 2.0 * math.pi ** 2,
}


def catalog(name: str) -> ProblemCoefficients:
    """Built-in problems on the unit square, by name."""
    if name == "laplace":
        return _constant_problem("laplace", np.eye(2), np.zeros(2), 0.0)
    if name == "ex5_1":
        return _constant_problem("ex5_1", [[10.0, 9.0], [9.0, 10.0]], np.zeros(2), 0.0)
    if name == "ex5_2":
        return _constant_problem("ex5_2", [[10.0, 9.0], [9.0, 10.0]], [50.0, -50.0], 1.0)
    if name == "ex5_3":
        # b is a rigid rotation field about (0.5, 0.5); div b = 0 analytically.
        return ProblemCoefficients(
            label="ex5_3",
            dim=2,
            diffusion=_ex5_3_diffusion,
            convection=_ex5_3_convection,
            reaction=lambda x: 1.0,
            convection_divergence=lambda x: 0.0,
            convection_is_zero=False,
        )
    if name == "ex5_4":
        return ProblemCoefficients(
            label="ex5_4",
            dim=2,
            diffusion=_ex5_4_diffusion,
            convection=lambda x: np.zeros(2),
            reaction=lambda x: 0.0,
            convection_divergence=lambda x: 0.0,
            convection_is_zero=True,
        )
    if name in ("ex5_5k10", "ex5_5k100"):
        k = 10.0 if name == "ex5_5k10" else 100.0
        return ProblemCoefficients(
            label=name,
            dim=2,
            diffusion=lambda x, k=k: _ex5_5_diffusion(x, k),
            convection=lambda x: np.zeros(2),
            reaction=lambda x: 0.0,
            convection_divergence=lambda x: 0.0,
            convection_is_zero=True,
        )
    raise CoefficientError(f"unknown catalog problem {name!r}")


# ---------------------------------------------------------------------------
# JSON descriptor: constant-coefficient user problems
# ---------------------------------------------------------------------------

def _holds_bool(value) -> bool:
    """Whether a JSON value is a boolean or a list holding one at any depth."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def coefficients_from_json(text: str) -> ProblemCoefficients:
    """Build a constant-coefficient problem from a JSON descriptor.

    Expected fields: "diffusion" (d x d nested list), "convection"
    (d list), "reaction" (number); optional "label".  Variable coefficients
    are only available through the built-in catalog.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CoefficientError(f"invalid coefficient JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CoefficientError("coefficient JSON must be an object")
    for key in ("diffusion", "convection", "reaction"):
        if key not in payload:
            raise CoefficientError(f"coefficient JSON is missing field {key!r}")
        if _holds_bool(payload[key]):
            # numpy and float() read true and false as 1 and 0
            raise CoefficientError(f"coefficient JSON field {key!r} holds a boolean, "
                                   "not a number")
    try:
        D = np.asarray(payload["diffusion"], dtype=np.float64)
        b = np.asarray(payload["convection"], dtype=np.float64)
        c = float(payload["reaction"])
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"coefficient JSON fields must be numbers: {exc}") from exc
    check_spd(D)
    if b.shape != (D.shape[0],):
        raise CoefficientError("convection vector length must match diffusion dimension")
    if not (np.isfinite(b).all() and math.isfinite(c)):
        raise CoefficientError("convection and reaction must be finite")
    if c < 0.0:
        # Constant b has zero divergence, so the assumption reduces to c >= 0.
        raise CoefficientError("constant reaction coefficient must be nonnegative")
    label = str(payload.get("label", "user"))
    return _constant_problem(label, D, b, c)
