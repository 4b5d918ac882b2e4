"""The batched element table against the per-element loop oracle."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import eigenfem.coefficients
from eigenfem import (SimplicialMesh, assemble, catalog, coefficients_from_json,
                      convergence_study, element_table, evaluate_conditions,
                      export_triangle, generate_structured, import_mesh,
                      metric_angle_cosines, quadrature_barycentric, solve_smallest)
from eigenfem.cli import main
from eigenfem.element_geometry import simplex_geometry

from oracles import (broadcast_coefficient_stats, loop_assemble, loop_delaunay,
                     loop_nonobtuse)


def jittered_triangle_mesh(seed: int, J: int = 17) -> SimplicialMesh:
    """J x J grid, interior vertices jittered by up to 0.2 h, a random
    diagonal in each cell, passed through the Triangle text format."""
    rng = np.random.default_rng(seed)
    grid = generate_structured("mesh45", J)
    h = 1.0 / (J - 1)
    shift = rng.uniform(-0.2 * h, 0.2 * h, size=grid.vertices.shape)
    vertices = grid.vertices + np.where(grid.boundary[:, None], 0.0, shift)
    a = (np.arange(J - 1)[None, :] + J * np.arange(J - 1)[:, None]).ravel()
    b, c, d = a + 1, a + J + 1, a + J
    flip = (rng.random(a.size) < 0.5)[:, None]
    first = np.where(flip, np.column_stack([a, b, d]), np.column_stack([a, b, c]))
    second = np.where(flip, np.column_stack([b, c, d]), np.column_stack([a, c, d]))
    elements = np.stack([first, second], axis=1).reshape(-1, 3)
    mesh = SimplicialMesh.from_arrays(2, vertices, elements, grid.boundary)
    return import_mesh(*export_triangle(mesh))


def kuhn_cube(n: int) -> SimplicialMesh:
    """Unit cube with n cells per axis, each cut into the six Kuhn tetrahedra."""
    t = np.linspace(0.0, 1.0, n + 1)
    vertices = np.array(list(itertools.product(t, t, t)))
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    elements = []
    for corner in itertools.product(range(n), repeat=3):
        for axes in itertools.permutations(range(3)):
            cur = np.array(corner)
            path = [cur @ stride]
            for ax in axes:
                cur[ax] += 1
                path.append(cur @ stride)
            elements.append(path)
    boundary = np.any((vertices == 0.0) | (vertices == 1.0), axis=1)
    return SimplicialMesh.from_arrays(3, vertices, np.array(elements), boundary)


def _close(x, ref, tol=1e-12):
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _check_matrices(mesh, coeffs):
    system = assemble(mesh, coeffs)
    A_ref, B_ref = loop_assemble(mesh, coeffs)
    assert np.abs(system.A.toarray() - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
    assert np.abs(system.B.toarray() - B_ref).max() <= 1e-13 * np.abs(B_ref).max()


def _check_elements(rep, mesh, coeffs):
    ref = loop_nonobtuse(mesh, coeffs)
    assert len(rep.alpha_max) == len(ref)
    for i, (alpha, bound, weak, strict) in enumerate(ref):
        assert _close(rep.alpha_max[i], alpha)
        assert np.isnan(rep.rhs_bound[i]) == (bound is None)
        if bound is not None:
            assert _close(rep.rhs_bound[i], bound)
        assert (rep.pass_weak[i], rep.pass_strict[i]) == (weak, strict)


@pytest.mark.parametrize("case", ["jittered", "mesh135"])
def test_table_matches_loop_oracle(case):
    if case == "jittered":
        mesh, problems = jittered_triangle_mesh(7), ("ex5_5k10", "ex5_3")
    else:
        mesh, problems = generate_structured("mesh135", 17), ("ex5_2",)
    for name in problems:
        coeffs = catalog(name)
        _check_matrices(mesh, coeffs)
        rep = evaluate_conditions(mesh, element_table(mesh, coeffs))
        _check_elements(rep.nonobtuse, mesh, coeffs)
        ref, d = loop_delaunay(mesh, coeffs), rep.delaunay
        assert len(d.lhs) == len(ref)
        for i, (edge, elems, lhs, theta, free, weak, strict) in enumerate(ref):
            assert (tuple(d.edges[i].tolist()), tuple(d.elements[i].tolist())) == (edge, elems)
            assert _close(d.lhs[i], lhs) and _close(d.theta[i], theta)
            assert _close(d.lhs_theta_free[i], free)
            assert (d.pass_weak[i], d.pass_strict[i]) == (weak, strict)


def test_table_matches_loop_oracle_3d():
    mesh = kuhn_cube(3)
    coeffs = coefficients_from_json(
        '{"diffusion": [[3.0, 1.0, 0.5], [1.0, 2.0, 0.2], [0.5, 0.2, 1.5]], '
        '"convection": [1.0, -2.0, 0.5], "reaction": 0.7}')
    _check_matrices(mesh, coeffs)
    rep = evaluate_conditions(mesh, element_table(mesh, coeffs))
    _check_elements(rep.nonobtuse, mesh, coeffs)


def test_table_shapes():
    mesh = generate_structured("mesh45", 5)
    t = element_table(mesh, catalog("ex5_3"))
    N = mesh.n_elements
    assert t.geom.grad_basis.shape == (N, 3, 2)
    assert t.quad_weights.shape == (N, 3)
    assert t.convection_q.shape == (N, 3, 2) and t.reaction_q.shape == (N, 3)
    assert t.D_K.shape == (N, 2, 2) and t.cosines.shape == (N, 3, 3)
    assert abs(t.geom.volume.sum() - 1.0) <= 1e-14


def test_cosines_computed_on_first_use(monkeypatch, tmp_path):
    calls = []

    def counted(geom, D):
        calls.append(len(D))
        return metric_angle_cosines(geom, D)

    monkeypatch.setattr(eigenfem.coefficients, "metric_angle_cosines", counted)
    mesh = generate_structured("mesh45", 9)
    solve_smallest(assemble(mesh, catalog("ex5_3")), k=2)
    convergence_study(catalog("laplace"), "mesh45", [5, 9, 17], 2.0 * np.pi ** 2)
    assert main(["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", "9",
                 "--k", "3", "--out", str(tmp_path / "solve")]) == 0
    assert calls == []
    assert main(["analyze", "--problem", "ex5_5k10", "--mesh", "mesh135", "--J", "9",
                 "--out", str(tmp_path / "analyze")]) == 3
    assert calls == [generate_structured("mesh135", 9).n_elements]

    t = element_table(mesh, catalog("ex5_4"))
    assert t.cosines is t.cosines and len(calls) == 2
    assert np.array_equal(t.cosines, metric_angle_cosines(t.geom, t.D_K))


@pytest.mark.parametrize("case", ["mesh45", "mesh135", "jittered", "kuhn"])
def test_mesh_spacing_is_largest_diameter_bitwise(case):
    mesh = {"mesh45": lambda: generate_structured("mesh45", 23),
            "mesh135": lambda: generate_structured("mesh135", 41),
            "jittered": lambda: jittered_triangle_mesh(11),
            "kuhn": lambda: kuhn_cube(3)}[case]()
    # the mesh spacing h that convergence_study reports, the largest element
    # diameter of the table, is the longest edge found edge by edge in floats
    X = mesh.vertices[mesh.elements]
    longest = max(math.sqrt(sum(float(t) * float(t) for t in x[a] - x[b]))
                  for x in X for a, b in itertools.combinations(range(len(x)), 2))
    h = simplex_geometry(X).diameter.max()
    assert h.tobytes() == np.float64(longest).tobytes()


@pytest.mark.parametrize("name", ["laplace", "ex5_2", "ex5_4", "ex5_5k10", "variable_b_c"])
def test_coefficient_stats_match_broadcast_reference_bitwise(name):
    if name == "variable_b_c":  # sup norms taken at vertices as well as nodes
        coeffs = dataclasses.replace(catalog("ex5_3"),
                                     reaction=lambda x: 1.0 + x[..., 0] * x[..., 1])
    else:
        coeffs = catalog(name)
    for mesh in (generate_structured("mesh135", 17), jittered_triangle_mesh(3)):
        t, X = element_table(mesh, coeffs), mesh.vertices[mesh.elements]
        ref = broadcast_coefficient_stats(coeffs, quadrature_barycentric(2)[0] @ X,
                                          t.quad_weights, X)
        for got, want in zip((t.D_K, t.b_sup, t.c_sup), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
