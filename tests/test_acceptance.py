"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS/FAIL`` banner line (bypassing capture) so a plain
``pytest`` run shows the verdict table regardless of -v or -q.  Tests
compute first, print the banner, then assert, so a failing criterion
still reports its measured numbers.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from eigenfem import (CATALOG_NAMES, REFERENCE_VALUES, assemble, catalog,
                      coefficients_from_json, convergence_study, evaluate_conditions,
                      generate_structured, import_mesh,
                      export_triangle, lu_factor, m_matrix_certificate,
                      property_suite, solve_smallest, SimplicialMesh)
from eigenfem.sparse_linalg import solve as lu_solve

from oracles import (dense_generalized_eigs_cond, hessenberg_eigen,
                     perron_oracle)


class _Record:
    """Accumulates per-criterion check results and a summary line."""

    def __init__(self):
        self.ok = True
        self.notes: list[str] = []
        self.failures: list[str] = []

    def check(self, cond: bool, label: str) -> None:
        if not cond:
            self.ok = False
            self.failures.append(label)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def detail(self) -> str:
        parts = self.failures if self.failures else self.notes
        return "; ".join(parts) if parts else "ok"


@contextmanager
def criterion(capsys, num: int):
    """Print exactly one banner line for the criterion, then assert."""
    rec = _Record()
    try:
        yield rec
    except BaseException as exc:
        with capsys.disabled():
            print(f"[criterion {num}] FAIL — {type(exc).__name__}: {exc}")
        raise
    verdict = "PASS" if rec.ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {verdict} — {rec.detail}")
    assert rec.ok, f"criterion {num}: {rec.detail}"


@pytest.fixture(scope="module")
def ex5_2_mesh45():
    """Shared k=20 solves of the convection problem on the acute mesh."""
    coeffs = catalog("ex5_2")
    out = {}
    for J in (41, 81):
        mesh = generate_structured("mesh45", J)
        system = assemble(mesh, coeffs)
        cert = m_matrix_certificate(system.A)
        sol = solve_smallest(system, k=20)
        out[J] = (mesh, system, cert, sol,
                  property_suite(sol, system, cert))
    return out


def _study(name, kind, J_list):
    return convergence_study(catalog(name), kind, J_list, REFERENCE_VALUES[name])


def test_criterion_1_laplace_anchor(capsys):
    with criterion(capsys, 1) as rec:
        t0 = time.perf_counter()
        study = _study("laplace", "mesh45", [11, 21, 41, 81])
        elapsed = time.perf_counter() - t0
        lam = study.rows[-1].lambda1
        rec.check(abs(study.slope - 2.0) <= 0.2,
                  f"observed order {study.slope:.3f} outside 2.0 +/- 0.2")
        rec.check(elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")
        rec.note(f"lambda_1 -> {lam:.4f} (limit {2 * math.pi ** 2:.4f}), "
                 f"order {study.slope:.3f}, {elapsed:.1f}s")


def test_criterion_2_anisotropic_reproduction(capsys):
    with criterion(capsys, 2) as rec:
        t0 = time.perf_counter()
        s45 = _study("ex5_1", "mesh45", [11, 21, 41, 81])
        s135 = _study("ex5_1", "mesh135", [11, 21, 41, 81])
        elapsed = time.perf_counter() - t0

        rec.check(abs(s45.slope - 2.0) <= 0.3,
                  f"acute-mesh order {s45.slope:.3f} outside 2.0 +/- 0.3")
        ratios = [b.error / a.error for a, b in zip(s45.rows, s135.rows)]
        rec.check(min(ratios) >= 5.0,
                  f"obtuse/acute error ratio {min(ratios):.2f} below 5")
        for row in s45.rows:
            rec.check(abs(row.undershoot) <= 1e-10,
                      f"acute mesh undershoot {row.undershoot:.2e} at J={row.J}")
        for row in s135.rows:
            if row.J == 11:
                # At this resolution A^-1 already has negative entries but the
                # principal eigenvector itself is still strictly positive; the
                # first negative vertex value appears at J=21.  Require only
                # that no spurious positive clamp sneaks in.
                rec.check(row.undershoot <= 0.0,
                          f"obtuse mesh undershoot {row.undershoot:.2e} at J=11")
            else:
                rec.check(row.undershoot < 0.0,
                          f"no undershoot on the obtuse mesh at J={row.J}")
        rec.check(elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min")
        unders = ", ".join(f"J={r.J}:{r.undershoot:.1e}" for r in s135.rows)
        rec.note(f"acute order {s45.slope:.3f}, error ratio >= "
                 f"{min(ratios):.1f}x, obtuse undershoots [{unders}], "
                 f"{elapsed:.1f}s")


def test_criterion_3_angle_aggregates(capsys):
    targets = {
        "mesh135": (0.86 * math.pi, 1.71 * math.pi),
        "mesh45": (0.43 * math.pi, 0.86 * math.pi),
    }
    coeffs = catalog("ex5_1")
    with criterion(capsys, 3) as rec:
        got = {}
        for kind, (amax_t, asum_t) in targets.items():
            rep = evaluate_conditions(generate_structured(kind, 9), coeffs)
            got[kind] = (rep.alpha_max_metric, rep.alpha_sum_metric)
            rec.check(abs(rep.alpha_max_metric - amax_t) <= 5e-3 * math.pi,
                      f"{kind} alpha_max {rep.alpha_max_metric / math.pi:.4f}pi "
                      f"vs {amax_t / math.pi:.2f}pi")
            rec.check(abs(rep.alpha_sum_metric - asum_t) <= 5e-3 * math.pi,
                      f"{kind} alpha_sum {rep.alpha_sum_metric / math.pi:.4f}pi "
                      f"vs {asum_t / math.pi:.2f}pi")
        rec.note("; ".join(
            f"{kind}: ({v[0] / math.pi:.3f}pi, {v[1] / math.pi:.3f}pi)"
            for kind, v in got.items()))


def test_criterion_4_convection_spectrum(capsys, ex5_2_mesh45):
    coeffs = catalog("ex5_2")
    with criterion(capsys, 4) as rec:
        mesh = generate_structured("mesh135", 41)
        system = assemble(mesh, coeffs)
        sol = solve_smallest(system, k=20)
        lam = sol.eigenvalues
        n_nonreal = int(np.sum(np.abs(lam.imag) > 1e-8 * np.abs(lam)))
        rec.check(n_nonreal >= 1,
                  "no non-real eigenvalue among 20 on the obtuse mesh")

        for J in (41, 81):
            props = ex5_2_mesh45[J][4]
            rec.check(bool(props.principal_real), f"J={J} principal not real")
            rec.check(bool(props.principal_simple), f"J={J} principal not simple")
            rec.check(bool(props.sign_preserving), f"J={J} sign violated")
            rec.check(bool(props.re_at_least_lambda1),
                      f"J={J} some Re(lambda) below lambda_1")

        study = _study("ex5_2", "mesh45", [21, 41, 81, 161])
        rec.check(abs(study.slope - 2.0) <= 0.3,
                  f"order {study.slope:.3f} outside 2.0 +/- 0.3")
        lam1 = ex5_2_mesh45[81][3].eigenvalues[0].real
        rec.note(f"{n_nonreal}/20 non-real on the obtuse mesh, acute lambda_1 "
                 f"-> {lam1:.2f}, order {study.slope:.3f}")


def test_criterion_5_certified_property_suite(capsys, ex5_2_mesh45):
    with criterion(capsys, 5) as rec:
        cases = []
        for name in ("ex5_1", "laplace"):
            coeffs = catalog(name)
            mesh = generate_structured("mesh45", 41)
            system = assemble(mesh, coeffs)
            cert = m_matrix_certificate(system.A)
            sol = solve_smallest(system, k=6)
            props = property_suite(sol, system, cert)
            cases.append((f"{name}/mesh45 J=41", coeffs, props))
        for J in (41, 81):
            cases.append((f"ex5_2/mesh45 J={J}", catalog("ex5_2"),
                          ex5_2_mesh45[J][4]))

        for label, coeffs, props in cases:
            core = (bool(props.principal_real) and bool(props.principal_simple)
                    and bool(props.sign_preserving)
                    and bool(props.rayleigh_identity_ok))
            rec.check(core, f"{label} core properties failed: "
                            f"real={props.principal_real} "
                            f"simple={props.principal_simple} "
                            f"sign={props.sign_preserving} "
                            f"rayleigh={props.rayleigh_identity_ok}")
            if coeffs.is_symmetric:
                rec.check(bool(props.variational_min_ok),
                          f"{label} variational minimum violated")
        rec.note(f"{len(cases)} certified cases, all properties hold "
                 "(variational check on the symmetric ones)")


def test_criterion_6_oracle_equivalence(capsys):
    eps = np.finfo(np.float64).eps
    with criterion(capsys, 6) as rec:
        worst_rel = 0.0
        n_combos = 0
        n_certified = 0
        n_smeared = 0
        for name in CATALOG_NAMES:
            coeffs = catalog(name)
            for kind in ("mesh45", "mesh135"):
                for J in (5, 9, 17):
                    mesh = generate_structured(kind, J)
                    system = assemble(mesh, coeffs)
                    sol = solve_smallest(system, k=5)
                    rec.check(sol.k_converged == 5,
                              f"{name}/{kind} J={J}: only {sol.k_converged} "
                              "of 5 pairs converged")
                    # One extra oracle value so a conjugate pair straddling
                    # the k=5 cut (a modulus tie) can match either member.
                    Ad, Bd = system.A.toarray(), system.B.toarray()
                    ref, kappa = dense_generalized_eigs_cond(Ad, Bd, 6)
                    # Perturbation scale of a backward-stable eigenvalue:
                    # two such computations agree only up to kappa * eps *
                    # (||A|| + |lambda| ||B||).  For well-conditioned pencils
                    # this is far below the 1e-7 target, which then binds.
                    scale = (np.linalg.norm(Ad)
                             + np.abs(ref) * np.linalg.norm(Bd))
                    used = np.zeros(len(ref), dtype=bool)
                    for lam in sol.eigenvalues:
                        cand = np.where(~used)[0]
                        j = cand[np.argmin(np.abs(ref[cand] - lam))]
                        used[j] = True
                        allowed = max(1e-7 * abs(ref[j]),
                                      50.0 * kappa[j] * eps * scale[j])
                        if allowed > 1e-7 * abs(ref[j]):
                            n_smeared += 1
                        else:
                            worst_rel = max(worst_rel,
                                            abs(lam - ref[j]) / abs(ref[j]))
                        rec.check(abs(lam - ref[j]) <= allowed,
                                  f"{name}/{kind} J={J}: eigenvalue off by "
                                  f"{abs(lam - ref[j]):.2e} vs allowed "
                                  f"{allowed:.2e} (kappa {kappa[j]:.1e})")
                    cert = m_matrix_certificate(system.A)
                    if cert.certified_irreducible_m_matrix:
                        n_certified += 1
                        po = perron_oracle(system.A, system.B)
                        rec.check(bool(po.inverse_positive),
                                  f"{name}/{kind} J={J}: certificate holds but "
                                  "the inverse is not elementwise positive")
                    n_combos += 1
        rec.note(f"{n_combos} combos; worst deviation {worst_rel:.1e} relative "
                 f"where 1e-7 is attainable, {n_smeared} ill-conditioned "
                 "values held to the perturbation bound instead; "
                 f"{n_certified} certificates all backed by a positive inverse")


# Constant-coefficient variants used to exercise the condition-to-certificate
# chain beyond the built-in catalog: the mirrored anisotropy certifies the
# obtuse mesh, and mild convection/reaction keeps the strict bound satisfied.
_FLIP = {"label": "flip", "diffusion": [[10.0, -9.0], [-9.0, 10.0]],
         "convection": [0.0, 0.0], "reaction": 0.0}
_CONV = {"label": "conv", "diffusion": [[10.0, 9.0], [9.0, 10.0]],
         "convection": [1.0, 0.5], "reaction": 0.2}
_FLIPCONV = {"label": "flipconv", "diffusion": [[10.0, -9.0], [-9.0, 10.0]],
             "convection": [-1.0, 0.5], "reaction": 0.1}


def test_criterion_7_condition_certificate_chain(capsys):
    combos = []
    for J in (11, 21, 41):
        combos.append((catalog("ex5_1"), "ex5_1", "mesh45", J))
        combos.append((coefficients_from_json(json.dumps(_FLIP)),
                       "flip", "mesh135", J))
        combos.append((coefficients_from_json(json.dumps(_CONV)),
                       "conv", "mesh45", J))
        combos.append((coefficients_from_json(json.dumps(_FLIPCONV)),
                       "flipconv", "mesh135", J))
    with criterion(capsys, 7) as rec:
        n_strict = 0
        for coeffs, label, kind, J in combos:
            mesh = generate_structured(kind, J)
            rep = evaluate_conditions(mesh, coeffs)
            rec.check(rep.strict_pass,
                      f"{label}/{kind} J={J} fails the strict conditions")
            cert = m_matrix_certificate(assemble(mesh, coeffs).A)
            rec.check(cert.certified_irreducible_m_matrix,
                      f"{label}/{kind} J={J} strict pass without certificate")
            if rep.strict_pass:
                n_strict += 1
        rec.check(n_strict >= 12, f"only {n_strict} strict-pass combinations")

        # No catalog combination anywhere on the small grid may break the
        # implication either.
        violations = 0
        for name in CATALOG_NAMES:
            coeffs = catalog(name)
            for kind in ("mesh45", "mesh135"):
                for J in (5, 9, 17):
                    mesh = generate_structured(kind, J)
                    rep = evaluate_conditions(mesh, coeffs)
                    if not rep.strict_pass:
                        continue
                    cert = m_matrix_certificate(assemble(mesh, coeffs).A)
                    if not cert.certified_irreducible_m_matrix:
                        violations += 1
                        rec.check(False, f"{name}/{kind} J={J} strict pass "
                                         "without certificate")
        rec.note(f"{n_strict} designed combos certified, catalog sweep found "
                 f"{violations} violations")


def _sheared_acute_mesh(N: int = 24) -> SimplicialMesh:
    """Uniform triangulation of a sheared parallelogram, strictly acute
    in the metric of the divergence-free-convection problem."""
    u = np.array([1.0, 0.0]) / N
    v = np.array([0.3, 0.8]) / N
    verts = np.empty(((N + 1) * (N + 1), 2))
    index = {}
    for j in range(N + 1):
        for i in range(N + 1):
            index[(i, j)] = j * (N + 1) + i
            verts[index[(i, j)]] = i * u + j * v
    elems = []
    for j in range(N):
        for i in range(N):
            a, b = index[(i, j)], index[(i + 1, j)]
            c, d = index[(i + 1, j + 1)], index[(i, j + 1)]
            elems.append([a, b, d])
            elems.append([b, c, d])
    boundary = np.zeros(len(verts), dtype=bool)
    for (i, j), k in index.items():
        if i in (0, N) or j in (0, N):
            boundary[k] = True
    return SimplicialMesh.from_arrays(2, verts, np.array(elems), boundary,
                                      label="sheared-acute")


def test_criterion_8_imported_meshes(capsys):
    with criterion(capsys, 8) as rec:
        # Certified path on an imported strictly acute mesh.
        node_text, ele_text = export_triangle(_sheared_acute_mesh())
        mesh = import_mesh(node_text, ele_text)
        coeffs = catalog("ex5_3")
        rep = evaluate_conditions(mesh, coeffs)
        rec.check(rep.strict_pass, "sheared mesh fails the strict conditions")
        system = assemble(mesh, coeffs)
        cert = m_matrix_certificate(system.A)
        rec.check(cert.certified_irreducible_m_matrix,
                  "sheared mesh stiffness not a certified M-matrix")
        sol = solve_smallest(system, k=6)
        props = property_suite(sol, system, cert)
        full = (bool(props.principal_real) and bool(props.principal_simple)
                and bool(props.sign_preserving) and bool(props.re_positive_all)
                and bool(props.modulus_bound_all)
                and bool(props.rayleigh_identity_ok)
                and props.certificate_predicts)
        rec.check(full, "property suite failed on the certified import")
        rec.check(props.undershoot == 0.0,
                  f"undershoot {props.undershoot} on the certified import")

        # A strongly anisotropic problem whose stiffness matrix is not an
        # M-matrix must still solve cleanly and report the failed certificate.
        node2, ele2 = export_triangle(generate_structured("mesh45", 21))
        mesh2 = import_mesh(node2, ele2)
        coeffs2 = catalog("ex5_5k100")
        system2 = assemble(mesh2, coeffs2)
        cert2 = m_matrix_certificate(system2.A)
        rec.check(not cert2.certified_irreducible_m_matrix,
                  "anisotropic stiffness unexpectedly certified")
        rec.check(not cert2.is_z_matrix, "expected positive off-diagonals")
        sol2 = solve_smallest(system2, k=6)
        props2 = property_suite(sol2, system2, cert2)
        rec.check(sol2.k_converged == 6,
                  f"only {sol2.k_converged} of 6 pairs converged")
        rec.check(props2.certificate_predicts is False,
                  "failed certificate not reported alongside the results")
        rec.note(f"certified import: lambda_1={sol.eigenvalues[0].real:.4f}, "
                 f"undershoot 0; uncertified import: lambda_1="
                 f"{sol2.eigenvalues[0].real:.2f}, certificate failed, "
                 f"undershoot {props2.undershoot:.1e}")


def test_criterion_9_kernel_contracts(capsys):
    rng = np.random.default_rng(90210)
    with criterion(capsys, 9) as rec:
        cache = {}
        worst_lu = 0.0
        for _ in range(100):
            name = CATALOG_NAMES[int(rng.integers(len(CATALOG_NAMES)))]
            kind = ("mesh45", "mesh135")[int(rng.integers(2))]
            J = int(rng.integers(5, 14))
            key = (name, kind, J)
            if key not in cache:
                mesh = generate_structured(kind, J)
                cache[key] = assemble(mesh, catalog(name)).A
            A = cache[key]
            b = rng.standard_normal(A.shape[0])
            x = lu_solve(lu_factor(A), b)
            res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
            worst_lu = max(worst_lu, res)
        rec.check(worst_lu <= 1e-10,
                  f"worst LU residual {worst_lu:.2e} above 1e-10")

        worst_schur = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 61))
            H = np.triu(rng.standard_normal((n, n)), -1)
            _, T, Z = hessenberg_eigen(H)
            err = np.linalg.norm(Z @ T @ Z.T - H) / np.linalg.norm(H)
            worst_schur = max(worst_schur, err)
        rec.check(worst_schur <= 1e-10,
                  f"worst Schur backward error {worst_schur:.2e} above 1e-10")
        rec.note(f"100 LU solves worst residual {worst_lu:.1e}, 50 Schur "
                 f"factorizations worst backward error {worst_schur:.1e}")
