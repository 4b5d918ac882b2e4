"""Tests for the coefficient catalog and per-element coefficient statistics."""

import math

import numpy as np
import pytest

from eigenfem import (CATALOG_NAMES, REFERENCE_VALUES, CoefficientError,
                      ProblemCoefficients, catalog, coefficients_from_json,
                      element_table, evaluate_conditions, generate_structured)


def test_catalog_names_complete():
    assert set(CATALOG_NAMES) == {"laplace", "ex5_1", "ex5_2", "ex5_3",
                                  "ex5_4", "ex5_5k10", "ex5_5k100"}
    for name in CATALOG_NAMES:
        c = catalog(name)
        assert c.dim == 2
        assert c.label == name


def test_catalog_unknown():
    with pytest.raises(CoefficientError):
        catalog("nope")


def test_reference_values():
    assert abs(REFERENCE_VALUES["laplace"] - 2 * math.pi ** 2) <= 1e-12
    assert REFERENCE_VALUES["ex5_1"] == 150.288
    assert REFERENCE_VALUES["ex5_2"] == 1401.39
    assert REFERENCE_VALUES["ex5_3"] == 21.0714
    assert REFERENCE_VALUES["ex5_4"] == 687.666
    assert REFERENCE_VALUES["ex5_5k10"] == 170.422
    assert REFERENCE_VALUES["ex5_5k100"] == 1020.15


def test_constant_diffusion_eigen_range():
    t = element_table(generate_structured("mesh45", 3), catalog("ex5_1"))
    # D = [[10, 9], [9, 10]] has eigenvalues 1 and 19
    assert abs(t.lambda_min_DK[0] - 1.0) <= 1e-12
    assert abs(t.lambda_max_DK[0] - 19.0) <= 1e-12
    assert t.b_sup[0] == 0.0 and t.c_sup[0] == 0.0


def test_ex5_2_convection_sup():
    t = element_table(generate_structured("mesh45", 3), catalog("ex5_2"))
    assert abs(t.b_sup[0] - 50.0 * math.sqrt(2.0)) <= 1e-12
    assert abs(t.c_sup[0] - 1.0) <= 1e-12


def test_ex5_3_divergence_free():
    c = catalog("ex5_3")
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0, 1, size=2)
        assert c.convection_divergence(x) == 0.0
        b = c.convection(x)
        assert abs(b[0] - 20.0 * (x[1] - 0.5)) <= 1e-14
        assert abs(b[1] + 20.0 * (x[0] - 0.5)) <= 1e-14


def test_ex5_4_diagonal_anisotropy():
    c = catalog("ex5_4")
    x = np.array([0.5, 0.5])
    D = c.diffusion(x)
    s = math.sin(0.25 * math.pi)
    assert abs(D[0, 0] - 100.0 * (1.0 - 0.5 * s)) <= 1e-12
    assert abs(D[1, 1] - (1.0 + 0.5 * math.cos(0.25 * math.pi))) <= 1e-12
    assert D[0, 1] == 0.0 and D[1, 0] == 0.0


def test_ex5_5_eigenvalue_invariants():
    # the rotated tensor has eigenvalues k(1 - 0.5 sin x sin y) and
    # 1 + 0.5 cos x cos y regardless of the rotation angle
    for name, k in (("ex5_5k10", 10.0), ("ex5_5k100", 100.0)):
        c = catalog(name)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.uniform(0, 1, size=2)
            lam = np.linalg.eigvalsh(c.diffusion(x))
            d1 = k * (1.0 - 0.5 * math.sin(x[0]) * math.sin(x[1]))
            d2 = 1.0 + 0.5 * math.cos(x[0]) * math.cos(x[1])
            assert np.allclose(sorted(lam), sorted([d1, d2]), rtol=1e-12)


def test_assumptions_hold_on_grid():
    # SPD diffusion and c - div(b)/2 >= 0 at every quadrature node for every
    # catalog problem; element_table raises on the first violation
    for name in CATALOG_NAMES:
        for kind in ("mesh45", "mesh135"):
            element_table(generate_structured(kind, 11), catalog(name))


def test_assumptions_reject_bad_reaction():
    # c - div(b)/2 < 0 through a negative c, then through a positive div b
    c = coefficients_from_json('{"diffusion": [[1.0, 0.0], [0.0, 1.0]], '
                               '"convection": [0, 0], "reaction": 0.0}')
    for reaction, divergence in ((-1.0, 0.0), (0.0, 1.0)):
        bad = type(c)(label="bad", dim=2, diffusion=c.diffusion,
                      convection=c.convection, reaction=lambda x: reaction,
                      convection_divergence=lambda x: divergence,
                      convection_is_zero=True)
        with pytest.raises(CoefficientError, match=r"c - 0\.5 div b = -"):
            element_table(generate_structured("mesh45", 3), bad)


@pytest.mark.parametrize("J", [41, 81])
def test_negative_reaction_rejected_before_mesh_conditions(J):
    # ex5_1 with c = -2000: the mesh conditions, which read only |c|, pass
    # strictly on mesh45 although A is not an M-matrix, so the problem must
    # be refused before any condition is evaluated
    D = np.array([[10.0, 9.0], [9.0, 10.0]])
    bad = ProblemCoefficients(label="ex5_1-negative-c", dim=2, diffusion=lambda x: D,
                              convection=lambda x: np.zeros(2), reaction=lambda x: -2000.0,
                              convection_divergence=lambda x: 0.0, convection_is_zero=True)
    with pytest.raises(CoefficientError, match="c - 0.5 div b"):
        evaluate_conditions(generate_structured("mesh45", J), bad)


def test_element_stats_quadrature_average():
    # for ex5_4 the element average of a smooth D differs from any vertex
    # value but stays within the elementwise min/max of the sampled entries
    m = generate_structured("mesh45", 5)
    c = catalog("ex5_4")
    D_K = element_table(m, c).D_K[7]
    X = m.vertices[m.elements[7]]
    vals = np.array([c.diffusion(x)[0, 0] for x in X])
    assert vals.min() - 1e-9 <= D_K[0, 0] <= vals.max() + 1e-9


def test_symmetry_flags():
    assert catalog("laplace").is_symmetric
    assert catalog("ex5_1").is_symmetric
    assert not catalog("ex5_2").is_symmetric
    assert not catalog("ex5_3").is_symmetric
    assert catalog("ex5_4").is_symmetric
    assert catalog("ex5_5k100").is_symmetric


def test_coefficients_from_json():
    spec = ('{"label": "custom", "diffusion": [[2.0, 0.0], [0.0, 3.0]], '
            '"convection": [1.0, -1.0], "reaction": 0.5}')
    c = coefficients_from_json(spec)
    assert c.dim == 2
    x = np.array([0.3, 0.4])
    assert np.allclose(c.diffusion(x), [[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(c.convection(x), [1.0, -1.0])
    assert c.reaction(x) == 0.5
    assert c.convection_divergence(x) == 0.0


def test_coefficients_from_json_rejects_bad():
    with pytest.raises(CoefficientError):
        coefficients_from_json('{"diffusion": [[1.0, 2.0], [2.0, 1.0]], '
                               '"convection": [0, 0], "reaction": 0}')
    with pytest.raises(CoefficientError):
        coefficients_from_json('{"diffusion": [[1.0, 0.0], [0.0, 1.0]], '
                               '"convection": [0, 0], "reaction": -1.0}')


@pytest.mark.parametrize("diffusion, convection, reaction", [
    ("[[NaN, 0], [0, 1]]", "[0, 0]", "0"),
    ("[[Infinity, 0], [0, 1]]", "[0, 0]", "0"),
    ("[[1, 0], [0, 1]]", "[NaN, 0]", "0"),
    ("[[1, 0], [0, 1]]", "[0, -Infinity]", "0"),
    ("[[1, 0], [0, 1]]", "[0, 0]", "NaN"),
    ("[[1, 0], [0, 1]]", "[0, 0]", "Infinity"),
], ids=["nan-D", "inf-D", "nan-b", "inf-b", "nan-c", "inf-c"])
def test_coefficients_from_json_rejects_non_finite(diffusion, convection, reaction):
    # json.loads accepts NaN and Infinity; each comparison against NaN is False
    with pytest.raises(CoefficientError):
        coefficients_from_json(f'{{"diffusion": {diffusion}, '
                               f'"convection": {convection}, "reaction": {reaction}}}')


def test_nan_element_average_is_not_pd(monkeypatch):
    # behind the SPD check, a NaN lambda_min of D_K still counts as not PD
    import eigenfem.coefficients

    monkeypatch.setattr(eigenfem.coefficients, "check_spd", lambda D: D)
    bad = _with_diffusion(lambda x: np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(CoefficientError, match="not PD"):
        element_table(generate_structured("mesh45", 5), bad)


def _with_diffusion(diffusion) -> ProblemCoefficients:
    return ProblemCoefficients(label="D", dim=2, diffusion=diffusion,
                               convection=lambda x: np.zeros(2), reaction=lambda x: 0.0,
                               convection_divergence=lambda x: 0.0, convection_is_zero=True)


@pytest.mark.parametrize("D", [[[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.5], [0.4, 1.0]]],
                         ids=["indefinite", "nonsymmetric"])
def test_constant_non_spd_diffusion_rejected(D):
    # the element average of the nonsymmetric D has positive eigenvalues by
    # its upper triangle, so only the SPD check of the returned matrix catches it
    bad = _with_diffusion(lambda x, D=np.array(D): D)
    mesh = generate_structured("mesh45", 5)
    with pytest.raises(CoefficientError):
        element_table(mesh, bad)


def test_singular_diffusion_at_one_node_rejected():
    # D is the singular [[2, 2], [2, 2]] at one quadrature node and the
    # identity everywhere else, so the element average D_K is SPD; the last
    # Cholesky pivot at that node rounds to eps * 2 instead of 0, and the
    # pointwise SPD check still rejects it, as it does where a scalar 2.0
    # makes D singular everywhere
    mesh = generate_structured("mesh45", 5)
    pts = element_table(mesh, catalog("laplace")).quad_points
    point = pts[len(pts) // 2, 1]

    def diffusion(x):
        hit = np.all(np.asarray(x) == point, axis=-1)[..., None, None]
        return np.where(hit, np.full((2, 2), 2.0), np.eye(2))

    for bad in (_with_diffusion(diffusion), _with_diffusion(lambda x: 2.0)):
        with pytest.raises(CoefficientError, match="not positive definite"):
            element_table(mesh, bad)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_diffusion_indefinite_at_one_node_rejected(q):
    # D is the identity except at one quadrature node, node q of one element
    # (a boundary-edge midpoint that no other element shares)
    mesh = generate_structured("mesh45", 5)
    pts = element_table(mesh, catalog("laplace")).quad_points
    flat = pts.reshape(-1, 2)
    unique = [K for K in range(len(pts))
              if np.all(flat == pts[K, q], axis=-1).sum() == 1]
    point = pts[max(unique), q]

    def diffusion(x):
        hit = np.all(np.asarray(x) == point, axis=-1)[..., None, None]
        return np.where(hit, np.diag([1.0, -1.0]), np.eye(2))

    bad = _with_diffusion(diffusion)
    with pytest.raises(CoefficientError):
        element_table(mesh, bad)


@pytest.mark.parametrize("value, error", [
    (2.0, CoefficientError),                # a scalar: [[2, 2], [2, 2]] is singular
    (-1.0, CoefficientError),
    (np.eye(3), ValueError),                 # cannot broadcast to (..., 2, 2)
    (np.ones((2, 3)), ValueError),
    (np.broadcast_to(np.eye(2), (7, 2, 2)), ValueError),
], ids=["scalar", "negative-scalar", "3x3", "2x3", "wrong-stack"])
def test_malformed_diffusion_result_raises(value, error):
    with pytest.raises(error):
        element_table(generate_structured("mesh45", 5), _with_diffusion(lambda x: value))
