"""Tests for stiffness/mass assembly against hand values and brute force."""

import math

import numpy as np
import pytest

from eigenfem import assemble, catalog, coefficients_from_json, generate_structured, rayleigh
from eigenfem.element_geometry import simplex_geometry

from oracles import hat_function, integrate_on_triangle


def interior_coords(mesh):
    return mesh.vertices[mesh.interior_vertices]


def test_laplace_five_point_stencil():
    # on mesh45 the P1 Laplacian reduces to the classic 5-point stencil
    # scaled by 1 (h cancels): diagonal 4, axis neighbors -1, diagonal
    # neighbors exactly 0
    J = 5
    h = 1.0 / (J - 1)
    m = generate_structured("mesh45", J)
    s = assemble(m, catalog("laplace"))
    A = s.A.toarray()
    coords = interior_coords(m)
    n = s.n
    for i in range(n):
        for j in range(n):
            dx = np.abs(coords[i] - coords[j]) / h
            if i == j:
                assert abs(A[i, j] - 4.0) <= 1e-12
            elif np.allclose(sorted(dx), [0.0, 1.0], atol=1e-9):
                assert abs(A[i, j] + 1.0) <= 1e-12
            elif np.allclose(dx, [1.0, 1.0], atol=1e-9):
                assert A[i, j] == 0.0
            elif dx.max() > 1.5:
                assert A[i, j] == 0.0


def test_mass_matrix_against_brute_force():
    # B_jk = integral of phi_j phi_k over the shared patch, checked by
    # subdivision quadrature on each triangle of the patch
    J = 4
    m = generate_structured("mesh45", J)
    s = assemble(m, catalog("laplace"))
    B = s.B.toarray()
    patches = {}
    for K, elem in enumerate(m.elements):
        for v in elem:
            patches.setdefault(int(v), []).append(K)
    iv = m.interior_vertices
    for a_pos in range(len(iv)):
        for b_pos in range(len(iv)):
            va, vb = int(iv[a_pos]), int(iv[b_pos])
            shared = set(patches[va]) & set(patches[vb])
            ref = 0.0
            for K in shared:
                X = m.vertices[m.elements[K]]
                la = list(m.elements[K]).index(va)
                lb = list(m.elements[K]).index(vb)
                pa = hat_function(X, la)
                pb = hat_function(X, lb)
                ref += integrate_on_triangle(lambda p: pa(p) * pb(p), X, level=48)
            # the centroid-rule oracle itself carries O(level^-2) error
            assert abs(B[a_pos, b_pos] - ref) <= 2e-5


def test_mass_closed_forms():
    # one interior vertex on a J=3 grid, patch of 6 triangles of area h^2/2:
    # B_11 = 2 * (6 * h^2/2) / 12 = h^2 / 2
    m = generate_structured("mesh45", 3)
    s = assemble(m, catalog("laplace"))
    h = 0.5
    assert s.n == 1
    assert abs(s.B.toarray()[0, 0] - h * h / 2.0) <= 1e-15
    # lumped: sum of patch areas / 3
    assert abs(s.B_lumped[0] - 6 * (h * h / 2.0) / 3.0) <= 1e-15


def test_mass_total_sums():
    # sum of all consistent-mass entries over ALL vertices would equal the
    # domain area; restricted to interior rows/columns it still equals the
    # integral of (sum of interior hats)^2 -- cheaper invariant: lumped
    # masses of interior vertices sum to the total area of their patches / 3
    m = generate_structured("mesh135", 6)
    s = assemble(m, catalog("laplace"))
    areas = np.array([simplex_geometry(m.vertices[e]).volume
                      for e in m.elements])
    expected = 0.0
    for K, elem in enumerate(m.elements):
        for v in elem:
            if m.interior_index[v] >= 0:
                expected += areas[K] / 3.0
    assert abs(s.B_lumped.sum() - expected) <= 1e-12


def test_symmetric_when_no_convection():
    for name in ("laplace", "ex5_1", "ex5_4", "ex5_5k10"):
        s = assemble(generate_structured("mesh135", 7), catalog(name))
        d = abs(s.A - s.A.T)
        assert d.max() <= 1e-12 * abs(s.A).max()


def test_nonsymmetric_convection_split():
    # for ex5_2 the skew part comes only from the convection term; the
    # symmetric part must equal the diffusion + reaction assembly
    m = generate_structured("mesh45", 7)
    s2 = assemble(m, catalog("ex5_2"))
    skew = (s2.A - s2.A.T) * 0.5
    assert abs(skew).max() > 0.1  # convection really is there
    no_b = coefficients_from_json(
        '{"label": "ex5_2_nob", "diffusion": [[10.0, 9.0], [9.0, 10.0]], '
        '"convection": [0.0, 0.0], "reaction": 1.0}')
    s0 = assemble(m, no_b)
    sym = (s2.A + s2.A.T) * 0.5
    assert abs(sym - s0.A).max() <= 1e-10
    # divergence-free constant b: the convection matrix is exactly skew,
    # so diagonals agree too
    assert abs((s2.A - s0.A).diagonal()).max() <= 1e-12


def test_constant_coefficient_exactness():
    # with constant D the quadrature is exact; compare one off-diagonal
    # entry against the hand formula |K| grad_j . D grad_k summed over the
    # two triangles sharing a horizontal edge of mesh45
    J = 5
    h = 1.0 / (J - 1)
    m = generate_structured("mesh45", J)
    c = catalog("ex5_1")
    s = assemble(m, c)
    D = np.array([[10.0, 9.0], [9.0, 10.0]])
    # hand assembly for the horizontal edge between interior vertices
    # (h, h)-(2h, h): vertices 6 and 7 on the J=5 grid
    v6 = m.interior_index[1 * J + 1]
    v7 = m.interior_index[1 * J + 2]
    assert v6 >= 0 and v7 >= 0
    total = 0.0
    for K, elem in enumerate(m.elements):
        elem = list(elem)
        if (1 * J + 1) in elem and (1 * J + 2) in elem:
            g = simplex_geometry(m.vertices[elem])
            lj = elem.index(1 * J + 1)
            lk = elem.index(1 * J + 2)
            total += g.volume * (g.grad_basis[lj] @ D @ g.grad_basis[lk])
    assert abs(s.A[v6, v7] - total) <= 1e-12 * abs(total)


def test_stiffness_positive_definite_symmetric_problem():
    s = assemble(generate_structured("mesh45", 9), catalog("ex5_1"))
    A = s.A.toarray()
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.standard_normal(s.n)
        assert v @ A @ v > 0.0


def test_rayleigh_matches_sine_eigenfunction():
    # F(v) for v = interpolated principal sine mode approaches 2 pi^2
    J = 41
    m = generate_structured("mesh45", J)
    c = catalog("laplace")
    s = assemble(m, c)
    coords = interior_coords(m)
    v = np.sin(math.pi * coords[:, 0]) * np.sin(math.pi * coords[:, 1])
    val = rayleigh(s, v)
    exact = 2 * math.pi ** 2
    assert abs(val - exact) <= 0.02 * exact


def test_rayleigh_scale_invariance():
    m = generate_structured("mesh45", 9)
    c = catalog("ex5_2")
    s = assemble(m, c)
    rng = np.random.default_rng(19)
    v = rng.standard_normal(s.n)
    assert abs(rayleigh(s, v) - rayleigh(s, 13.7 * v)) <= 1e-9 * abs(
        rayleigh(s, v))


def test_rayleigh_rejects_zero():
    m = generate_structured("mesh45", 5)
    c = catalog("laplace")
    s = assemble(m, c)
    with pytest.raises(ValueError):
        rayleigh(s, np.zeros(s.n))



def test_rayleigh_reads_the_named_mass():
    s = assemble(generate_structured("mesh45", 9), catalog("ex5_1"))
    v = np.random.default_rng(23).standard_normal(s.n)
    num = v @ (s.A @ v)
    assert rayleigh(s, v) == pytest.approx(num / (v @ (s.B @ v)), rel=1e-14)
    assert rayleigh(s, v, "lumped") == pytest.approx(num / (s.B_lumped @ (v * v)), rel=1e-14)
    with pytest.raises(ValueError, match="unknown mass treatment"):
        rayleigh(s, v, "diagonal")
