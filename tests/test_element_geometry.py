"""Tests for element geometry: gradients, metric angles, quadrature."""

import math

import numpy as np
import pytest

from eigenfem import (CoefficientError, metric_altitudes, metric_angle_cosines,
                      quadrature_barycentric)
from eigenfem.element_geometry import (SPD_PIVOT_TOL, _spd_terms_2x2,
                                       angle_from_cos, check_spd, min_cosine,
                                       simplex_geometry)

from oracles import hat_function, integrate_on_triangle

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def metric_angle(g, D, j, k):
    """Angle between faces j and k of the simplex in the D^{-1} geometry."""
    return float(angle_from_cos(metric_angle_cosines(g, D)[j, k]))


def test_right_triangle_geometry():
    g = simplex_geometry(RIGHT)
    assert abs(g.volume - 0.5) <= 1e-15
    assert abs(g.diameter - math.sqrt(2.0)) <= 1e-15
    # gradients of the three hat functions
    assert np.allclose(g.grad_basis[0], [-1.0, -1.0])
    assert np.allclose(g.grad_basis[1], [1.0, 0.0])
    assert np.allclose(g.grad_basis[2], [0.0, 1.0])


def test_gradient_partition_of_unity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.standard_normal((3, 2))
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        if np.linalg.det(V) < 1e-3:
            continue
        g = simplex_geometry(X)
        assert np.allclose(g.grad_basis.sum(axis=0), 0.0, atol=1e-12)


def test_gradient_altitude_identity():
    # grad phi_j = -q_j / (h_j |q_j|) with q_j the unit inner normal of the
    # face opposite vertex j and h_j the Euclidean altitude; since q_j is a
    # unit vector this reads grad phi_j = -q_j / h_j... and q_j points away
    # from vertex j, so -q_j/h_j points toward it with magnitude 1/h_j.
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = rng.standard_normal((3, 2)) * 2.0
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        if np.linalg.det(V) < 1e-2:
            continue
        g = simplex_geometry(X)
        for j in range(3):
            lhs = g.grad_basis[j]
            rhs = -g.inner_normals[j] / g.altitudes_euclid[j]
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_euclidean_angles_right_triangle():
    g = simplex_geometry(RIGHT)
    I = np.eye(2)
    # the angle at the right-angle vertex is the dihedral between the two
    # legs' opposite faces, i.e. between faces 1 and 2
    assert abs(metric_angle(g, I, 1, 2) - math.pi / 2) <= 1e-12
    assert abs(metric_angle(g, I, 0, 1) - math.pi / 4) <= 1e-12
    assert abs(metric_angle(g, I, 0, 2) - math.pi / 4) <= 1e-12
    assert abs(angle_from_cos(min_cosine(metric_angle_cosines(g, I))) - math.pi / 2) <= 1e-12


def test_angle_sum_is_pi():
    rng = np.random.default_rng(5)
    for _ in range(30):
        X = rng.standard_normal((3, 2))
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        if abs(np.linalg.det(V)) < 1e-2:
            continue
        if np.linalg.det(V) < 0:
            X = X[[0, 2, 1]]
        g = simplex_geometry(X)
        I = np.eye(2)
        total = (metric_angle(g, I, 0, 1)
                 + metric_angle(g, I, 1, 2)
                 + metric_angle(g, I, 0, 2))
        assert abs(total - math.pi) <= 1e-10


def test_metric_angle_invariance():
    # the D^{-1} metric angle is invariant under x -> R x when D -> R D R^T
    rng = np.random.default_rng(6)
    D = np.array([[10.0, 9.0], [9.0, 10.0]])
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    g = simplex_geometry(X)
    base = [metric_angle(g, D, j, k)
            for j, k in ((0, 1), (1, 2), (0, 2))]
    for _ in range(10):
        th = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        Xr = X @ R.T
        gr = simplex_geometry(Xr)
        Dr = R @ D @ R.T
        rot = [metric_angle(gr, Dr, j, k)
               for j, k in ((0, 1), (1, 2), (0, 2))]
        assert np.allclose(base, rot, atol=1e-10)


def test_metric_angle_scaling_invariance():
    D = np.array([[2.0, 0.5], [0.5, 1.0]])
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.7]])
    g1 = simplex_geometry(X)
    g2 = simplex_geometry(X * 7.5)
    for j, k in ((0, 1), (1, 2), (0, 2)):
        assert abs(metric_angle(g1, D, j, k)
                   - metric_angle(g2, D, j, k)) <= 1e-12


def test_laplace_identity_metric_equals_euclidean():
    # with D = I the metric angles are the ordinary Euclidean angles
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    g = simplex_geometry(X)
    C = metric_angle_cosines(g, np.eye(2))
    e01 = X[1] - X[0]
    e02 = X[2] - X[0]
    cos_at_0 = (e01 @ e02) / (np.linalg.norm(e01) * np.linalg.norm(e02))
    # angle at vertex 0 is the dihedral between faces 1 and 2
    assert abs(C[1, 2] - cos_at_0) <= 1e-12


def test_stiffness_kernel_identity():
    # grad phi_j . D grad phi_k  ==  -cos(alpha_jk) / (h_j,D h_k,D)
    rng = np.random.default_rng(8)
    for _ in range(20):
        X = rng.standard_normal((3, 2))
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        if np.linalg.det(V) < 1e-2:
            continue
        W = rng.standard_normal((2, 2))
        D = W @ W.T + 0.5 * np.eye(2)
        g = simplex_geometry(X)
        alt = metric_altitudes(g, D)
        C = metric_angle_cosines(g, D)
        for j in range(3):
            for k in range(j + 1, 3):
                direct = g.grad_basis[j] @ D @ g.grad_basis[k]
                via_angle = -C[j, k] / (alt[j] * alt[k])
                assert abs(direct - via_angle) <= 1e-10 * max(1.0, abs(direct))


def test_metric_altitude_bounds():
    # h_j / sqrt(lam_max) <= h_{j,D} <= h_j / sqrt(lam_min)
    rng = np.random.default_rng(9)
    for _ in range(20):
        X = rng.standard_normal((3, 2))
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        if np.linalg.det(V) < 1e-2:
            continue
        W = rng.standard_normal((2, 2))
        D = W @ W.T + 0.1 * np.eye(2)
        lam = np.linalg.eigvalsh(D)
        g = simplex_geometry(X)
        alt = metric_altitudes(g, D)
        for j in range(3):
            h = g.altitudes_euclid[j]
            assert h / math.sqrt(lam[-1]) - 1e-12 <= alt[j]
            assert alt[j] <= h / math.sqrt(lam[0]) + 1e-12


def test_tetrahedron_geometry():
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = simplex_geometry(X)
    assert abs(g.volume - 1.0 / 6.0) <= 1e-15
    assert np.allclose(g.grad_basis[0], [-1, -1, -1])
    # right-angle corner: the three coordinate faces are pairwise orthogonal
    # in the identity metric; dihedral between faces 1 and 2 is pi/2
    assert abs(metric_angle(g, np.eye(3), 1, 2) - math.pi / 2) <= 1e-12


def test_check_spd_rejects():
    with pytest.raises(CoefficientError):
        check_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), "test")  # indefinite
    with pytest.raises(CoefficientError):
        check_spd(np.array([[1.0, 0.5], [0.4, 1.0]]), "test")  # nonsymmetric


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_spd_rejects_non_finite(bad):
    # neither the symmetry test nor Cholesky fails on NaN
    for D in (np.array([[bad, 0.0], [0.0, 1.0]]),
              np.stack([np.eye(2), np.array([[1.0, bad], [bad, 1.0]])])):
        with pytest.raises(CoefficientError, match="non-finite"):
            check_spd(D, "test")


def _spd_candidates(n: int, seed: int) -> np.ndarray:
    """n matrices (n, 2, 2) around the SPD boundary: [[a, b], [b, c]] with
    b = rho sqrt(a c), a fifth with rho in (-1.2, 1.2), two fifths within
    1e-17..1e-12 of |rho| = 1, a fifth with |rho| = 1, the rest |rho| < 1;
    then some with equal entries, a negative or zero first pivot or a scale
    of 1e-300 or 1e300, and a third made asymmetric by 1e-13 relative."""
    rng = np.random.default_rng(seed)
    m, k = n // 5, n // 40
    a, c = np.exp(rng.normal(0.0, 3.0, (2, n)))
    rho = np.concatenate([
        rng.uniform(-1.2, 1.2, m),
        rng.choice([-1.0, 1.0], 2 * m) * (1.0 - 10.0 ** rng.uniform(-17, -12, 2 * m)),
        rng.choice([-1.0, 1.0], m),
        rng.uniform(-1.0, 1.0, n - 4 * m)])
    b = rho * np.sqrt(a * c)
    D = np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)
    rest = 4 * m + k * np.arange(6)
    D[rest[0]:rest[1]] = np.exp(rng.normal(0.0, 3.0, k))[:, None, None]
    D[rest[1]:rest[2], 0, 0] *= -1.0
    D[rest[2]:rest[3], 0, 0] = 0.0
    D[rest[3]:rest[4]] *= 1e-300
    D[rest[4]:rest[5]] *= 1e300 / np.abs(D[rest[4]:rest[5]]).max(axis=(1, 2))[:, None, None]
    skew = rng.random(n) < 0.3
    D[skew, 0, 1] += rng.uniform(-1e-13, 1e-13, skew.sum()) * np.abs(D[skew]).max(axis=(1, 2))
    D[:3] = [[[2.0, 2.0], [2.0, 2.0]], np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0 + 1e-15]]]
    return D


def test_check_spd_2x2_verdicts_match_lapack_cholesky():
    # the 2 x 2 recurrence against np.linalg.cholesky of the symmetric part,
    # matrix by matrix, on 10^5 matrices near the SPD boundary
    D = _spd_candidates(100_000, 11)
    S = 0.5 * (D + np.swapaxes(D, 1, 2))
    absmax = np.abs(D).max(axis=(1, 2))
    want = np.zeros(len(D), dtype=bool)
    for i, s in enumerate(S):
        try:
            L = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            continue
        want[i] = np.diagonal(L).min() ** 2 > SPD_PIVOT_TOL * absmax[i]
    assert 0.3 < want.mean() < 0.7 and not want[:3].any()
    absmax2, asym, pivot = _spd_terms_2x2(D)
    assert absmax2.tobytes() == absmax.tobytes()
    assert asym.tobytes() == np.abs(D - np.swapaxes(D, 1, 2)).max(axis=(1, 2)).tobytes()
    assert np.array_equal(pivot ** 2 > SPD_PIVOT_TOL * absmax, want)
    # the accepted pivots are LAPACK's, bit for bit: OpenBLAS and reference
    # LAPACK both form l10 as s10 * (1 / l00)
    lapack = np.diagonal(np.linalg.cholesky(S[want]), axis1=1, axis2=2).min(axis=1)
    assert pivot[want].tobytes() == lapack.tobytes()
    assert check_spd(D[want]) is not None
    for d in D[~want][::50]:
        with pytest.raises(CoefficientError, match="not positive definite"):
            check_spd(d, "test")


def test_check_spd_rejects_a_nan_pivot():
    # the symmetric part overflows, so the last pivot is inf - inf = NaN;
    # np.linalg.cholesky returns that NaN without raising
    D = np.array([[8.45e307, 9.75e307], [9.75e307, 1.49e308]])
    D3 = np.eye(3)
    D3[:2, :2] = D
    with np.errstate(over="ignore"):
        for M in (D, D3):
            with pytest.raises(CoefficientError, match="not positive definite"):
                check_spd(M, "test")


def test_quadrature_rule_degree_two():
    # both rules integrate all monomials of degree <= 2 exactly on the
    # reference simplex: integral of l1^a l2^b over the simplex has the
    # closed form a! b! d! / (a+b+d)! * |K| ... checked against subdivision
    bary, w = quadrature_barycentric(2)
    assert abs(w.sum() - 1.0) <= 1e-15
    g = simplex_geometry(RIGHT)
    pts = bary @ RIGHT

    for f in (lambda p: 1.0, lambda p: p[0], lambda p: p[1],
              lambda p: p[0] * p[1], lambda p: p[0] ** 2,
              lambda p: (p[0] - 0.3) * (p[1] + 0.2)):
        quad = g.volume * sum(wq * f(p) for wq, p in zip(w, pts))
        ref = integrate_on_triangle(f, RIGHT, level=128)
        assert abs(quad - ref) <= 5e-5 * max(1.0, abs(ref))


def test_quadrature_3d_weights():
    bary, w = quadrature_barycentric(3)
    assert bary.shape == (4, 4)
    assert abs(w.sum() - 1.0) <= 1e-15
    # integrates quadratics exactly: check l1*l2 whose exact simplex
    # integral is 1/120 on the unit tet (volume 1/6 times 1/20)
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = simplex_geometry(X)
    val = g.volume * sum(wq * (b[0] * b[1]) for wq, b in zip(w, bary))
    assert abs(val - 1.0 / 120.0) <= 1e-15


def test_hat_function_oracle_consistency():
    # sanity on the test oracle itself: integral of a hat function over the
    # triangle is |K|/3
    for v in range(3):
        phi = hat_function(RIGHT, v)
        val = integrate_on_triangle(phi, RIGHT, level=96)
        assert abs(val - 0.5 / 3.0) <= 2e-5
