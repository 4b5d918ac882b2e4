"""Tests for the nonobtuse and Delaunay-type mesh conditions."""

import math

import numpy as np
import pytest

from eigenfem import (SimplicialMesh, assemble, catalog, coefficients_from_json,
                      element_table, evaluate_conditions, generate_structured,
                      m_matrix_certificate)

from oracles import entry_bound_report


def _conditions(mesh, coeffs):
    return evaluate_conditions(mesh, element_table(mesh, coeffs))


def test_laplace_mesh45_exact_values():
    # right-triangle grid with D = I: alpha_max = pi/2 exactly, every
    # Delaunay lhs <= pi with the diagonal edges attaining pi exactly
    m = generate_structured("mesh45", 5)
    c = catalog("laplace")
    rep = _conditions(m, c)
    assert abs(rep.alpha_max_metric - math.pi / 2) <= 1e-12
    assert abs(rep.alpha_sum_metric - math.pi) <= 1e-12
    assert rep.nonobtuse_weak and not rep.nonobtuse_strict
    assert rep.delaunay_weak and not rep.delaunay_strict
    assert rep.interiorly_connected
    assert rep.weak_pass and not rep.strict_pass


@pytest.mark.parametrize("kind", ["mesh45", "mesh135"])
def test_laplace_rounding_ties_grade_weak(kind):
    # linspace rounding puts the right angles and facing-angle sums a few
    # ulp on either side of pi/2 and pi unless 1/(J-1) is a power of two;
    # every J must still give a weak pass and no strict pass
    c = catalog("laplace")
    for J in range(3, 65):
        rep = _conditions(generate_structured(kind, J), c)
        verdicts = (rep.nonobtuse_weak, rep.nonobtuse_strict,
                    rep.delaunay_weak, rep.delaunay_strict)
        assert verdicts == (True, False, True, False), (kind, J, verdicts)


def test_ex5_1_metric_angle_aggregates():
    # anisotropic D = [[10,9],[9,10]]: the mesh45 grid is nearly metric
    # nonobtuse while mesh135 is badly obtuse in the metric
    c = catalog("ex5_1")
    rep45 = _conditions(generate_structured("mesh45", 3), c)
    rep135 = _conditions(generate_structured("mesh135", 3), c)
    assert abs(rep45.alpha_max_metric - 0.42823 * math.pi) <= 5e-3 * math.pi
    assert abs(rep45.alpha_sum_metric - 0.85645 * math.pi) <= 5e-3 * math.pi
    assert abs(rep135.alpha_max_metric - 0.85644 * math.pi) <= 5e-3 * math.pi
    assert abs(rep135.alpha_sum_metric - 1.71289 * math.pi) <= 5e-3 * math.pi
    assert rep45.nonobtuse_strict and rep45.delaunay_strict
    assert not rep135.nonobtuse_weak and not rep135.delaunay_weak


def test_aggregates_scale_invariant():
    # pure-diffusion aggregates do not depend on mesh resolution for a
    # constant-coefficient problem on a self-similar structured family
    c = catalog("ex5_1")
    r1 = _conditions(generate_structured("mesh45", 3), c)
    r2 = _conditions(generate_structured("mesh45", 9), c)
    assert abs(r1.alpha_max_metric - r2.alpha_max_metric) <= 1e-12
    assert abs(r1.alpha_sum_metric - r2.alpha_sum_metric) <= 1e-12


def test_nonobtuse_rhs_shrinks_with_convection():
    # with b, c present the angle bound is strictly below pi/2 and grows
    # back toward pi/2 as h -> 0; on very coarse meshes the strong
    # convection of ex5_2 dominates entirely (argument > 1, bound NaN)
    c = catalog("ex5_2")
    rep_dom = _conditions(generate_structured("mesh45", 5), c).nonobtuse
    assert np.isnan(rep_dom.rhs_bound).all()
    assert not rep_dom.passed_weak
    rep_coarse = _conditions(generate_structured("mesh45", 41), c).nonobtuse
    rep_fine = _conditions(generate_structured("mesh45", 81), c).nonobtuse
    b_coarse = rep_coarse.rhs_bound.min()
    b_fine = rep_fine.rhs_bound.min()
    assert b_coarse < b_fine < math.pi / 2


def test_nonobtuse_dominated_case():
    # enormous convection on a coarse mesh: arccos argument exceeds 1,
    # element flagged by a NaN bound, failing both tests
    c = coefficients_from_json(
        '{"label": "dominated", "diffusion": [[1.0, 0.0], [0.0, 1.0]], '
        '"convection": [1000.0, 0.0], "reaction": 0.0}')
    rep = _conditions(generate_structured("mesh45", 3), c).nonobtuse
    assert not rep.passed_weak and not rep.passed_strict
    flagged = np.isnan(rep.rhs_bound)
    assert flagged.any() and not (rep.pass_weak | rep.pass_strict)[flagged].any()


def test_delaunay_reduces_to_euclidean_for_identity():
    # with D = I, b = 0, c = 0 the Delaunay-type lhs is the classic sum of
    # facing angles (each arccot(cot a) = a)
    m = generate_structured("mesh45", 4)
    rep = _conditions(m, catalog("laplace")).delaunay
    for (j, k), (K, Kp), lhs in zip(rep.edges.tolist(), rep.elements.tolist(), rep.lhs):
        # recompute facing angles directly from coordinates
        total = 0.0
        for elem_id in (K, Kp):
            elem = list(m.elements[elem_id])
            other = [v for v in elem if v not in (j, k)][0]
            u = m.vertices[j] - m.vertices[other]
            v = m.vertices[k] - m.vertices[other]
            cosv = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            total += math.acos(min(max(cosv, -1.0), 1.0))
        assert abs(lhs - total) <= 1e-10
    assert np.all(rep.theta == 0.0)


def test_delaunay_is_2d_only():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    m = SimplicialMesh.from_arrays(3, verts, np.array([[0, 1, 2, 3]]),
                                   np.ones(4, dtype=bool))
    c3 = coefficients_from_json(
        '{"diffusion": [[1.0,0,0],[0,1.0,0],[0,0,1.0]], '
        '"convection": [0,0,0], "reaction": 0}')
    rep = _conditions(m, c3)
    assert rep.delaunay is None and rep.alpha_sum_metric is None
    assert rep.delaunay_weak is None and rep.delaunay_strict is None


def test_entry_bounds_hold_across_catalog():
    # the analytic bounds are theorems: no assembled entry may violate them
    for name in ("laplace", "ex5_1", "ex5_2", "ex5_3", "ex5_4"):
        c = catalog(name)
        for kind in ("mesh45", "mesh135"):
            m = generate_structured(kind, 7)
            s = assemble(m, c)
            rep = entry_bound_report(m, s)
            assert len(rep.edges), f"no interior edges found for {name}/{kind}"
            bad = rep.edges[rep.violated]
            assert not len(bad), f"{name}/{kind}: {bad[:3]}"


def test_entry_bounds_laplace_values():
    # mesh45 + laplace: axis edges have a_jk = -1 with a tight 2D bound,
    # diagonal edges have a_jk = 0
    m = generate_structured("mesh45", 5)
    c = catalog("laplace")
    s = assemble(m, c)
    rep = entry_bound_report(m, s)
    h = 0.25
    dx = np.abs(m.vertices[rep.edges[:, 0]] - m.vertices[rep.edges[:, 1]]) / h
    axis = np.isclose(np.sort(dx, axis=1), [0.0, 1.0]).all(axis=1)
    assert axis.any() and not axis.all()
    assert np.all(np.abs(rep.a_jk - rep.a_kj) <= 1e-14)
    assert np.all(np.abs(rep.a_jk[axis] + 1.0) <= 1e-12)
    assert np.all(np.abs(rep.bound_2d[axis] + 1.0) <= 1e-12)
    assert np.all(np.abs(rep.a_jk[~axis]) <= 1e-14)
    assert np.all(rep.bound_2d[~axis] >= -1e-12)


def test_theorem_chain():
    # strict conditions + interior connectivity must imply the direct
    # matrix certificate; evaluated over the whole catalog on both mesh
    # families at two resolutions
    for name in ("laplace", "ex5_1", "ex5_2", "ex5_4", "ex5_5k10"):
        c = catalog(name)
        for kind in ("mesh45", "mesh135"):
            for J in (5, 9):
                m = generate_structured(kind, J)
                rep = _conditions(m, c)
                if rep.strict_pass:
                    cert = m_matrix_certificate(assemble(m, c).A)
                    assert cert.certified_irreducible_m_matrix, (
                        f"{name}/{kind}/J={J}: strict mesh pass but matrix "
                        f"certificate failed")



def test_conditions_reject_a_table_of_another_mesh():
    c = catalog("laplace")
    table = element_table(generate_structured("mesh45", 5), c)
    with pytest.raises(ValueError, match="element table holds 32 elements, the mesh 72"):
        evaluate_conditions(generate_structured("mesh45", 7), table)
