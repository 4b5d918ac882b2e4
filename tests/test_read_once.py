"""Each command builds what it reads, once: the matrices of an assembled
system on first read and the edge table of a mesh only where the mesh
conditions read it.  Recorded digests pin the matrices and the metric
cosines bit for bit."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import eigenfem.assembly
import eigenfem.mesh
from eigenfem import (CATALOG_NAMES, ProblemCoefficients, assemble, catalog,
                      element_table, export_triangle, generate_structured, rayleigh)
from eigenfem.cli import main

from oracles import eager_assemble
from test_element_table import jittered_triangle_mesh, kuhn_cube

MATRICES = ("A", "B", "B_lumped")


@pytest.fixture
def build_csr_calls(monkeypatch):
    calls = []
    real = eigenfem.assembly.build_csr

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(eigenfem.assembly, "build_csr", counting)
    return calls


@pytest.mark.parametrize("argv, exit_code, builds", [
    # analyze reads A alone
    (["analyze", "--problem", "ex5_5k10", "--mesh", "mesh45", "--J", "9"], 3, 1),
    # A, and B for the consistent-mass solve, at each of the three levels
    (["converge", "--problem", "laplace", "--mesh", "mesh45", "--J", "5,9,17"], 0, 6),
    # lumped mass is a vector: A alone at each level
    (["converge", "--problem", "laplace", "--mesh", "mesh45", "--J", "5,9,17",
      "--mass", "lumped"], 0, 3),
    # A and B: the property suite's Rayleigh quotient reads the same pencil
    (["solve", "--problem", "laplace", "--mesh", "mesh45", "--J", "9", "--k", "3"], 0, 2),
    (["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", "9", "--k", "3"], 0, 2),
    # lumped mass: the quotient reads B_lumped, so A alone
    (["solve", "--problem", "ex5_1", "--mesh", "mesh45", "--J", "9", "--k", "3",
      "--mass", "lumped"], 0, 1),
], ids=["analyze", "converge", "converge-lumped", "solve", "solve-nonsymmetric",
        "solve-lumped"])
def test_each_command_builds_what_it_reads(build_csr_calls, tmp_path, argv, exit_code, builds):
    assert main([*argv, "--out", str(tmp_path)]) == exit_code
    assert len(build_csr_calls) == builds


def test_matrices_built_on_first_read_and_kept(build_csr_calls):
    system = assemble(generate_structured("mesh135", 7), catalog("ex5_2"))
    assert len(build_csr_calls) == 1
    for name in MATRICES:
        assert getattr(system, name) is getattr(system, name)
    assert len(build_csr_calls) == 2        # B_lumped is a vector, not a CSR matrix


@pytest.fixture
def mesh_edges_calls(monkeypatch):
    calls = []
    real = eigenfem.mesh.mesh_edges

    def counting(mesh):
        calls.append(mesh.label)
        return real(mesh)

    monkeypatch.setattr(eigenfem.mesh, "mesh_edges", counting)
    return calls


@pytest.mark.parametrize("mesh_args", [
    ["--mesh", "mesh45", "--J", "9"],
    ["--mesh", "import"],
], ids=["structured", "import"])
def test_analyze_builds_the_edge_table_once(mesh_edges_calls, tmp_path, mesh_args):
    if mesh_args[1] == "import":
        node, ele = tmp_path / "m.node", tmp_path / "m.ele"
        for path, text in zip((node, ele), export_triangle(jittered_triangle_mesh(5, 9))):
            path.write_text(text)
        mesh_args = [*mesh_args, "--node", str(node), "--ele", str(ele)]
    assert main(["analyze", "--problem", "ex5_5k10", *mesh_args,
                 "--out", str(tmp_path / "out")]) == 3
    assert len(mesh_edges_calls) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", "9", "--k", "3"],
    ["solve", "--problem", "laplace", "--mesh", "mesh135", "--J", "9", "--k", "1"],
    ["converge", "--problem", "laplace", "--mesh", "mesh45", "--J", "5,9,17"],
], ids=["solve", "solve-symmetric", "converge"])
def test_solve_and_converge_build_no_edge_table(mesh_edges_calls, tmp_path, argv):
    # neither reads the mesh conditions or the connectivity check
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert mesh_edges_calls == []


def _variable_3d() -> ProblemCoefficients:
    # varying D, b with div b = 3 and c - (1/2) div b = 0.5 + x y >= 0
    def diffusion(x):
        s = 1.0 + x[..., 0, None, None]
        return s * np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.2], [0.5, 0.2, 1.5]])

    return ProblemCoefficients(
        label="variable-3d", dim=3, diffusion=diffusion,
        convection=lambda x: x - 0.5,
        reaction=lambda x: 2.0 + x[..., 0] * x[..., 1],
        convection_divergence=lambda x: np.full(x.shape[:-1], 3.0))


def _cases():
    for name in CATALOG_NAMES:
        for kind in ("mesh45", "mesh135"):
            for J in (5, 17, 41):
                yield f"{name}-{kind}-{J}", lambda name=name, kind=kind, J=J: (
                    generate_structured(kind, J), catalog(name))
    yield "ex5_5k10-jittered", lambda: (jittered_triangle_mesh(7, 33), catalog("ex5_5k10"))
    yield "variable-3d-kuhn", lambda: (kuhn_cube(3), _variable_3d())


CASES = dict(_cases())


def _bytes(matrix) -> tuple:
    if isinstance(matrix, np.ndarray):
        return matrix.dtype.str, matrix.shape, matrix.tobytes()
    return (matrix.shape, matrix.data.tobytes(), matrix.indices.tobytes(),
            matrix.indptr.tobytes())


@pytest.mark.parametrize("case", list(CASES))
def test_lazy_matrices_match_eager_oracle_bytewise(case):
    mesh, coeffs = CASES[case]()
    assert coeffs.label in case and mesh.n_elements > 0
    want = {name: _bytes(m) for name, m in eager_assemble(mesh, coeffs).items()}
    # read in two orders from two systems: nothing depends on which comes first
    for order in (MATRICES, MATRICES[::-1]):
        system = assemble(mesh, coeffs)
        for name in order:
            assert _bytes(getattr(system, name)) == want[name], (case, name)


@pytest.mark.parametrize("case", list(CASES))
def test_rayleigh_quotient_matches_split_functional(case):
    # v' A v / v' B v against (v' A_D v + int (c - (1/2) div b) (v^h)^2) / v' B v,
    # A_D the diffusion-only stiffness: the convection form is
    # -(1/2) int div b (v^h)^2 exactly when b is affine, as in every case here
    mesh, coeffs = CASES[case]()
    eager = eager_assemble(mesh, coeffs)
    system = assemble(mesh, coeffs)
    rng = np.random.default_rng(97)
    for v in (np.ones(system.n), rng.standard_normal(system.n)):
        old = ((v @ (eager["A_diffusion"] @ v) + v @ (eager["effective_reaction"] @ v))
               / (v @ (eager["B"] @ v)))
        assert abs(rayleigh(system, v) - old) <= 1e-13 * abs(old), case


DIGESTS = pathlib.Path(__file__).with_name("data") / "matrix_digests.json"
COSINE_DIGESTS = DIGESTS.with_name("cosine_digests.json")


def _digest(matrix) -> str:
    """SHA-256 of the dtype, shape and bytes of a vector or of a CSR matrix's arrays."""
    h = hashlib.sha256()
    if isinstance(matrix, np.ndarray):
        parts = (matrix.dtype.str, matrix.shape, matrix.tobytes())
    else:
        parts = (matrix.shape, matrix.data.dtype.str, matrix.data.tobytes(),
                 matrix.indices.dtype.str, matrix.indices.tobytes(),
                 matrix.indptr.dtype.str, matrix.indptr.tobytes())
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def test_recorded_digests_cover_every_case():
    assert set(json.loads(DIGESTS.read_text())["digests"]) == set(CASES)
    assert set(json.loads(COSINE_DIGESTS.read_text())["digests"]) == set(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_matrices_match_recorded_digests(case):
    # recorded from an earlier assembly, not from eager_assemble, which shares
    # simplex_geometry and the element table with assemble
    want = json.loads(DIGESTS.read_text())["digests"][case]
    system = assemble(*CASES[case]())
    assert {name: _digest(getattr(system, name)) for name in MATRICES} == want


@pytest.mark.parametrize("case", list(CASES))
def test_cosines_match_recorded_digests(case):
    # the tie verdicts of the mesh conditions read the last bits of the
    # metric cosines, so those are pinned as recorded from an earlier table
    want = json.loads(COSINE_DIGESTS.read_text())["digests"][case]
    mesh, coeffs = CASES[case]()
    assert _digest(element_table(mesh, coeffs).cosines) == want
