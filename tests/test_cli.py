"""Tests for the command-line interface: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eigenfem
from eigenfem import (catalog, evaluate_conditions, export_triangle,
                      generate_structured, load_triangle)
from eigenfem.cli import main, write_vtk
from eigenfem.mesh_conditions import DOMINATED

from oracles import loop_write_vtk
from test_element_table import jittered_triangle_mesh, kuhn_cube


def run(argv):
    return main(argv)


def test_analyze_certified_exit_zero(tmp_path):
    code = run(["analyze", "--problem", "ex5_1", "--mesh", "mesh45",
                "--J", "41", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["conditions"]["strict_pass"] is True
    assert rep["certificate"]["certified_irreducible_m_matrix"] is True
    assert rep["config"]["problem"] == "ex5_1"
    assert (tmp_path / "per_edge.csv").exists()
    assert (tmp_path / "per_element.csv").exists()


@pytest.mark.parametrize("J", [5, 21, 41])
def test_analyze_weak_exit_two(tmp_path, J):
    # right triangles with D = I sit exactly on the bound: weak pass only;
    # at J = 21, 41 the grid coordinates round and the computed angles land
    # a few ulp on either side of pi/2, which still grades as a tie
    code = run(["analyze", "--problem", "laplace", "--mesh", "mesh45",
                "--J", str(J), "--out", str(tmp_path)])
    assert code == 2


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _floats(column):
    return np.array([float(x) for x in column])


@pytest.mark.parametrize("problem, kind, J, dominated", [
    ("ex5_5k10", "jittered", 17, "none"), ("ex5_2", "jittered", 33, "some"),
    ("ex5_2", "mesh45", 5, "all"), ("laplace", "mesh45", 21, "none")])
def test_analyze_csv_round_trip(tmp_path, problem, kind, J, dominated):
    # every value of per_element.csv / per_edge.csv parses back bit-exactly
    # to the condition report of the same mesh and problem
    if kind == "mesh45":
        mesh = generate_structured(kind, J)
        argv = ["--mesh", kind, "--J", str(J)]
    else:
        node, ele = tmp_path / "m.node", tmp_path / "m.ele"
        for path, text in zip((node, ele), export_triangle(jittered_triangle_mesh(7, J))):
            path.write_text(text)
        mesh = load_triangle(str(node), str(ele))
        argv = ["--mesh", "import", "--node", str(node), "--ele", str(ele)]
    out = tmp_path / "out"
    assert run(["analyze", "--problem", problem, *argv, "--out", str(out)]) in (0, 2, 3)
    rep = evaluate_conditions(mesh, catalog(problem))

    nob = rep.nonobtuse
    header, rows = _read_csv(out / "per_element.csv")
    assert header == ["element", "alpha_max", "rhs_bound", "pass_weak", "pass_strict", "reason"]
    assert len(rows) == mesh.n_elements and all(len(r) == 6 for r in rows)
    element, alpha, rhs, weak, strict, reason = zip(*rows)
    assert element == tuple(map(str, range(mesh.n_elements)))
    assert _floats(alpha).tobytes() == nob.alpha_max.tobytes()
    nan = np.isnan(nob.rhs_bound)
    assert (nan.any(), nan.all()) == {"none": (False, False), "some": (True, False),
                                      "all": (True, True)}[dominated]
    assert np.array_equal(np.array(rhs) == "", nan)
    assert np.array_equal(np.array(reason), np.where(nan, DOMINATED, ""))
    kept = [x for x in rhs if x]
    assert _floats(kept).tobytes() == nob.rhs_bound[~nan].tobytes()
    for column, bits in ((weak, nob.pass_weak), (strict, nob.pass_strict)):
        assert set(column) <= {"0", "1"}
        assert np.array_equal(np.array(column) == "1", bits)

    dela = rep.delaunay
    header, rows = _read_csv(out / "per_edge.csv")
    assert header == ["vertex_j", "vertex_k", "element_K", "element_Kp", "lhs",
                      "theta", "lhs_theta_free", "pass_weak", "pass_strict"]
    assert len(rows) == len(dela.lhs) > 0 and all(len(r) == 9 for r in rows)
    cols = list(zip(*rows))
    ints = np.array(cols[:4], dtype=np.int64).T
    assert np.array_equal(ints, np.hstack([dela.edges, dela.elements]))
    for column, values in zip(cols[4:7], (dela.lhs, dela.theta, dela.lhs_theta_free)):
        assert _floats(column).tobytes() == values.tobytes()
    for column, bits in zip(cols[7:], (dela.pass_weak, dela.pass_strict)):
        assert set(column) <= {"0", "1"}
        assert np.array_equal(np.array(column) == "1", bits)


def test_analyze_fail_exit_three(tmp_path):
    code = run(["analyze", "--problem", "ex5_1", "--mesh", "mesh135",
                "--J", "11", "--out", str(tmp_path)])
    assert code == 3
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["conditions"]["nonobtuse_weak"] is False


def test_analyze_unknown_problem_exit_one(tmp_path):
    code = run(["analyze", "--problem", "nope", "--mesh", "mesh45",
                "--J", "5", "--out", str(tmp_path)])
    assert code == 1


def test_analyze_missing_J_exit_one(tmp_path):
    code = run(["analyze", "--problem", "laplace", "--mesh", "mesh45",
                "--out", str(tmp_path)])
    assert code == 1


def test_solve_outputs(tmp_path, capsys):
    code = run(["solve", "--problem", "ex5_1", "--mesh", "mesh45",
                "--J", "21", "--k", "6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_1" in out and "certificate" in out
    assert len([ln for ln in out.strip().splitlines()]) == 5

    ev = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert ev[0].startswith("# config:")
    assert ev[1].split(",") == ["index", "re", "im", "modulus", "residual",
                                "converged"]
    assert len(ev) == 2 + 6

    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["properties"]["sign_preserving"] is True
    assert props["k_converged"] == 6

    vtk = (tmp_path / "principal.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    n_pts = 21 * 21
    pd = vtk.index(f"POINT_DATA {n_pts}")
    vals = np.array([float(x) for x in vtk[pd + 3:pd + 3 + n_pts]])
    # boundary vertices carry exactly 0, the peak is exactly 1
    m = generate_structured("mesh45", 21)
    assert np.all(vals[m.boundary] == 0.0)
    assert abs(vals.max() - 1.0) <= 1e-12


def test_solve_reports_failed_certificate_without_crashing(tmp_path):
    code = run(["solve", "--problem", "ex5_1", "--mesh", "mesh135",
                "--J", "11", "--k", "4", "--out", str(tmp_path)])
    assert code == 0
    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["certificate"]["certified_irreducible_m_matrix"] is False


def test_solve_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run(["solve", "--problem", "ex5_2", "--mesh", "mesh45",
                    "--J", "11", "--k", "4", "--out", str(out)]) == 0
    # the embedded config differs only in the output directory; everything
    # after the config line must be byte-identical
    e1 = (out1 / "eigenvalues.csv").read_text().splitlines()[1:]
    e2 = (out2 / "eigenvalues.csv").read_text().splitlines()[1:]
    assert e1 == e2, "eigenvalues.csv not deterministic"
    v1 = (out1 / "principal.vtk").read_bytes()
    v2 = (out2 / "principal.vtk").read_bytes()
    assert v1 == v2, "principal.vtk not byte-identical"
    # properties.json embeds the out dir in config; compare all other keys
    p1 = json.loads((out1 / "properties.json").read_text())
    p2 = json.loads((out2 / "properties.json").read_text())
    p1["config"].pop("out")
    p2["config"].pop("out")
    assert p1 == p2


def test_vtk_matches_loop_writer_2d(tmp_path):
    assert run(["solve", "--problem", "ex5_1", "--mesh", "mesh45", "--J", "5",
                "--k", "2", "--out", str(tmp_path)]) == 0
    got = (tmp_path / "principal.vtk").read_bytes()
    lines = got.decode().splitlines()
    mesh = generate_structured("mesh45", 5)
    pd = lines.index(f"POINT_DATA {mesh.n_vertices}")
    values = np.array([float(x) for x in lines[pd + 3:]])
    assert np.count_nonzero(values) == mesh.n_interior
    loop_write_vtk(tmp_path / "loop.vtk", mesh, values)
    assert got == (tmp_path / "loop.vtk").read_bytes()


def test_vtk_matches_loop_writer_3d(tmp_path):
    mesh = kuhn_cube(2)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.integers(-20, 20, mesh.n_vertices)
    values[:3] = [-0.0, 1.0, 1e-300]
    write_vtk(str(tmp_path / "bulk.vtk"), mesh, values, name="u")
    loop_write_vtk(tmp_path / "loop.vtk", mesh, values, name="u")
    assert (tmp_path / "bulk.vtk").read_bytes() == (tmp_path / "loop.vtk").read_bytes()


def test_converge_output(tmp_path):
    code = run(["converge", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "5,9,17", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].split(",")[0] == "J"
    assert len(lines) == 2 + 3
    Js = [int(l.split(",")[0]) for l in lines[2:]]
    assert Js == [5, 9, 17]
    last = lines[-1].split(",")
    assert float(last[4]) < float(lines[2].split(",")[4])  # error decreased


def test_converge_threads_env(tmp_path, monkeypatch):
    # EIGENFEM_THREADS is no longer read; a leftover setting must not change
    # the run or the order of the levels
    monkeypatch.setenv("EIGENFEM_THREADS", "2")
    code = run(["converge", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "5,9,17", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    Js = [int(l.split(",")[0]) for l in lines[2:]]
    assert Js == [5, 9, 17]


def test_config_errors_exit_one_under_optimize(tmp_path):
    # python -O strips assert statements, so input checks must raise
    src = os.path.dirname(os.path.dirname(eigenfem.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["converge", "--problem", "laplace", "--mesh", "mesh45",
                  "--J", "9,5,3"],
                 ["solve", "--problem", "laplace", "--mesh", "mesh45",
                  "--J", "5", "--k", "0"]):
        proc = subprocess.run([sys.executable, "-O", "-m", "eigenfem.cli", *argv,
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, (argv, proc.stdout, proc.stderr)


def test_solve_k51_within_krylov_cap(tmp_path):
    # 4k = 204 exceeds the Hessenberg cap of 200; the default dimension is
    # clamped to the cap instead of failing as a configuration error
    code = run(["solve", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "21", "--k", "51", "--out", str(tmp_path)])
    assert code == 0
    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["k_requested"] == 51
    assert props["k_converged"] == 51


def test_cli_never_imports_scipy_spatial(tmp_path):
    # the mesh checks are plain numpy; scipy.spatial costs 0.1 s per run
    m = generate_structured("mesh45", 9)
    node_text, ele_text = export_triangle(m)
    (tmp_path / "m.node").write_text(node_text)
    (tmp_path / "m.ele").write_text(ele_text)
    src = os.path.dirname(os.path.dirname(eigenfem.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = ("import sys\n"
              "from eigenfem.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "sys.exit(100 + code if 'scipy.spatial' in sys.modules else code)\n")
    for argv, expected in (
            (["analyze", "--problem", "ex5_1", "--mesh", "import",
              "--node", str(tmp_path / "m.node"), "--ele", str(tmp_path / "m.ele")], 0),
            (["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", "9",
              "--k", "2"], 0),
            (["converge", "--problem", "laplace", "--mesh", "mesh45",
              "--J", "5,9,17"], 0)):
        proc = subprocess.run([sys.executable, "-c", script, *argv,
                               "--out", str(tmp_path / argv[0])],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, (argv, proc.stdout, proc.stderr)


def test_cli_import_leaves_out_scipy_io():
    # Matrix Market I/O imports scipy.io on first use; it costs 13-18 ms
    # of every run's start-up and no command needs it
    src = os.path.dirname(os.path.dirname(eigenfem.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = ("import sys\n"
              "import eigenfem.cli\n"
              "sys.exit(1 if 'scipy.io' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


def test_converge_bad_J_list(tmp_path):
    code = run(["converge", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "9,5", "--out", str(tmp_path)])
    assert code == 1


def test_converge_json_problem(tmp_path, capsys):
    # a JSON problem runs the same study as its catalog twin; it has no
    # catalog reference value, so --ref is required
    path = tmp_path / "lap.json"
    path.write_text(json.dumps({"diffusion": [[1.0, 0.0], [0.0, 1.0]],
                                "convection": [0.0, 0.0], "reaction": 0.0}))
    argv = ["converge", "--mesh", "mesh45", "--J", "5,9,17"]
    assert run(argv + ["--problem", "laplace", "--out", str(tmp_path / "cat")]) == 0
    assert run(argv + ["--problem", str(path), "--ref", "19.7392088",
                       "--out", str(tmp_path / "json")]) == 0

    def columns(out):
        lines = (tmp_path / out / "convergence.csv").read_text().splitlines()[2:]
        return [line.split(",")[:4] for line in lines]   # J, n, h, lambda_1

    assert columns("json") == columns("cat")
    capsys.readouterr()
    assert run(argv + ["--problem", str(path), "--out", str(tmp_path / "noref")]) == 1
    assert "pass --ref" in capsys.readouterr().err


def test_import_mesh_path(tmp_path):
    m = generate_structured("mesh45", 9)
    node_text, ele_text = export_triangle(m)
    node = tmp_path / "m.node"
    ele = tmp_path / "m.ele"
    node.write_text(node_text)
    ele.write_text(ele_text)
    out = tmp_path / "out"
    code = run(["analyze", "--problem", "ex5_1", "--mesh", "import",
                "--node", str(node), "--ele", str(ele), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["mesh"]["n_vertices"] == 81


def test_import_missing_file(tmp_path):
    code = run(["analyze", "--problem", "ex5_1", "--mesh", "import",
                "--node", str(tmp_path / "none.node"),
                "--ele", str(tmp_path / "none.ele"), "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("problem", ["laplace", "ex5_1", "ex5_4"])
def test_lumped_solve_checks_the_lumped_pencil(tmp_path, problem):
    # the Rayleigh identity holds on the pencil that was solved: F(u_1) on
    # (A, B_lumped) is lambda_1 to rounding, where on the consistent B it is
    # about 1% away
    code = run(["solve", "--problem", problem, "--mesh", "mesh45", "--J", "21",
                "--k", "3", "--mass", "lumped", "--out", str(tmp_path)])
    assert code == 0
    props = json.loads((tmp_path / "properties.json").read_text())["properties"]
    assert props["rayleigh_identity_ok"] is True
    assert props["variational_min_ok"] is True


def test_problem_json_descriptor(tmp_path):
    spec = {"label": "iso", "diffusion": [[1.0, 0.0], [0.0, 1.0]],
            "convection": [0.0, 0.0], "reaction": 0.0}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    code = run(["solve", "--problem", str(path), "--mesh", "mesh45",
                "--J", "11", "--k", "2", "--out", str(tmp_path)])
    assert code == 0
    props = json.loads((tmp_path / "properties.json").read_text())
    assert abs(props["lambda_1"]["re"] - 2 * np.pi ** 2) <= 0.5


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("field, value", [
    ("diffusion", [[float("nan"), 0.0], [0.0, 1.0]]),
    ("convection", [float("inf"), 0.0]),
    ("reaction", float("nan")),
], ids=["nan-diffusion", "inf-convection", "nan-reaction"])
def test_non_finite_coefficient_exit_one(tmp_path, capsys, command, field, value):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    spec = {"diffusion": [[1.0, 0.0], [0.0, 1.0]], "convection": [0.0, 0.0],
            "reaction": 0.0, field: value}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--problem", str(path), "--mesh", "mesh45", "--J", "5",
            "--out", str(tmp_path / "out")]
    assert run(argv + (["--k", "2"] if command == "solve" else [])) == 1
    assert "finite" in capsys.readouterr().err


_GOOD_SPEC = {"diffusion": [[1.0, 0.0], [0.0, 1.0]], "convection": [0.0, 0.0],
              "reaction": 0.0}


@pytest.mark.parametrize("payload", [
    3, "diffusion convection reaction",
    {**_GOOD_SPEC, "reaction": None}, {**_GOOD_SPEC, "reaction": [1]},
    {**_GOOD_SPEC, "diffusion": {"a": 1}},
], ids=["number", "string", "null-reaction", "list-reaction", "object-diffusion"])
def test_malformed_json_descriptor_exit_one(tmp_path, capsys, payload):
    # payloads of the wrong JSON type are configuration errors, not TypeErrors
    text = json.dumps(payload)
    with pytest.raises(eigenfem.CoefficientError):
        eigenfem.coefficients_from_json(text)
    path = tmp_path / "prob.json"
    path.write_text(text)
    assert run(["analyze", "--problem", str(path), "--mesh", "mesh45", "--J", "5",
                "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: coefficient JSON")


@pytest.mark.parametrize("spec", [
    {"diffusion": [[True, False], [False, True]], "convection": [False, False],
     "reaction": True},
    {**_GOOD_SPEC, "diffusion": [[1.0, False], [False, 1.0]]},
    {**_GOOD_SPEC, "convection": [0.0, True]},
    {**_GOOD_SPEC, "reaction": False},
], ids=["all-boolean", "diffusion", "convection", "reaction"])
def test_boolean_coefficient_exit_one(tmp_path, capsys, spec):
    # numpy and float() read true and false as 1 and 0; JSON numbers they are not
    text = json.dumps(spec)
    with pytest.raises(eigenfem.CoefficientError, match="boolean"):
        eigenfem.coefficients_from_json(text)
    path = tmp_path / "prob.json"
    path.write_text(text)
    assert main(["solve", "--problem", str(path), "--mesh", "mesh45", "--J", "11",
                 "--k", "1", "--out", str(tmp_path / "out")]) == 1
    assert "boolean" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solver_failure_exit_four(tmp_path, monkeypatch, capsys):
    # force a solver failure by patching solve_smallest to raise
    import eigenfem.cli as cli_mod
    from eigenfem import EigenSolveError

    def boom(*a, **kw):
        raise EigenSolveError("synthetic failure")

    monkeypatch.setattr(cli_mod, "solve_smallest", boom)
    code = run(["solve", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "5", "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err == "solver failure: synthetic failure\n"


def test_solve_partial_convergence_exit_four(tmp_path, monkeypatch, capsys):
    # one unconverged pair out of k is a solver failure; the outputs are
    # still written so the converged pairs can be inspected
    import dataclasses

    import eigenfem.cli as cli_mod

    real_solve = cli_mod.solve_smallest

    def drop_one(*a, **kw):
        sol = real_solve(*a, **kw)
        conv = sol.converged.copy()
        conv[-1] = False
        return dataclasses.replace(sol, converged=conv, k_converged=int(conv.sum()))

    monkeypatch.setattr(cli_mod, "solve_smallest", drop_one)
    code = run(["solve", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "9", "--k", "4", "--out", str(tmp_path)])
    assert code == 4
    assert "3 of 4" in capsys.readouterr().err
    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["k_converged"] == 3
    assert (tmp_path / "eigenvalues.csv").exists()
    assert (tmp_path / "principal.vtk").exists()


def test_solve_k199_converges_all(tmp_path):
    # implicit restarts converge every pair at k = 199; the old restarted
    # Arnoldi with a fixed 200-vector basis converged 121 of them
    code = run(["solve", "--problem", "ex5_2", "--mesh", "mesh45",
                "--J", "41", "--k", "199", "--out", str(tmp_path)])
    assert code == 0
    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["k_requested"] == 199
    assert props["k_converged"] == 199
    assert props["krylov_dim"] > 199
    assert props["n_solves"] > 0


def test_converge_unconverged_lambda1_exit_four(tmp_path, monkeypatch):
    # a refinement level whose lambda_1 failed the residual test is a
    # solver failure, not a data point of the study
    import dataclasses

    import eigenfem.eigensolver as solver_mod

    real_solve = solver_mod.solve_smallest

    def unconverged(*a, **kw):
        sol = real_solve(*a, **kw)
        return dataclasses.replace(sol, converged=np.zeros_like(sol.converged),
                                   k_converged=0)

    monkeypatch.setattr(solver_mod, "solve_smallest", unconverged)
    code = run(["converge", "--problem", "laplace", "--mesh", "mesh45",
                "--J", "5,9,17", "--out", str(tmp_path)])
    assert code == 4
