"""Command-line interface.

Three subcommands:

* ``analyze``  -- evaluate the mesh conditions and the matrix certificate,
  write report.json, per_edge.csv, per_element.csv.  Exit code encodes the
  verdict: 0 strict pass (certified), 2 weak pass only, 3 fail.
* ``solve``    -- assemble and solve for the k smallest eigenpairs, verify
  the spectral properties, write eigenvalues.csv, properties.json and the
  principal eigenfunction as principal.vtk.
* ``converge`` -- refinement study of lambda_1 over a list of J values,
  write convergence.csv.

Exit codes: 0 success/certified, 1 configuration or I/O error, 2 weak
pass only, 3 condition failure, 4 solver failure (for ``solve`` also: fewer
than min(k, n) pairs converged; the outputs are still written).  Every
output file embeds the run configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .coefficients import (CATALOG_NAMES, REFERENCE_VALUES, ProblemCoefficients,
                           catalog, coefficients_from_json)
from .errors import CoefficientError, EigenSolveError, MeshError, SingularMatrixError
from .eigensolver import convergence_study, property_suite, solve_smallest
from .matrix_analysis import m_matrix_certificate
from .mesh import SimplicialMesh, generate_structured, load_triangle
from .mesh_conditions import DOMINATED, evaluate_conditions

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_WEAK = 2
EXIT_FAIL = 3
EXIT_SOLVER = 4

_VTK_CELL_TYPES = {2: 5, 3: 10}  # triangle, tetrahedron


@dataclass(frozen=True)
class RunConfig:
    """Echo of the parsed arguments, embedded in every output file."""

    command: str
    problem: str
    mesh: str
    J: int | None = None
    J_list: tuple | None = None
    node: str | None = None
    ele: str | None = None
    k: int = 6
    mass: str = "consistent"
    tol: float = 1e-10
    ref: float | None = None
    out: str = "."


def _float_repr(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _json_ready(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str, config: RunConfig, payload: dict) -> None:
    doc = {"config": dataclasses.asdict(config), **payload}
    with open(path, "w") as fh:
        json.dump(_json_ready(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, config: RunConfig, header: list, rows) -> None:
    """Write rows of already formatted strings under a config comment and header."""
    lines = ["# config: " + json.dumps(_json_ready(dataclasses.asdict(config)), sort_keys=True)]
    lines.append(",".join(header))
    lines.extend(map(",".join, rows))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk(path: str, mesh: SimplicialMesh, point_values: np.ndarray,
              name: str = "principal") -> None:
    """Write a legacy ASCII VTK unstructured grid with one point scalar."""
    if point_values.shape != (mesh.n_vertices,):
        raise ValueError(f"expected {mesh.n_vertices} point values, got shape "
                         f"{point_values.shape}")
    coords = np.zeros((mesh.n_vertices, 3))
    coords[:, :mesh.dim] = mesh.vertices
    npe = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 f"eigenfem {name} on {mesh.label}\n"
                 "ASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_vertices} double\n")
        # one % pass per section; %r of a float is its repr, %d of an int its str
        fh.write("%r %r %r\n" * mesh.n_vertices % tuple(coords.ravel().tolist()))
        fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (npe + 1)}\n")
        fh.write((f"{npe}" + " %d" * npe + "\n") * mesh.n_elements
                 % tuple(mesh.elements.ravel().tolist()))
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        fh.write(f"{_VTK_CELL_TYPES[mesh.dim]}\n" * mesh.n_elements)
        fh.write(f"POINT_DATA {mesh.n_vertices}\n"
                 f"SCALARS {name} double 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write("%r\n" * mesh.n_vertices
                 % tuple(np.asarray(point_values, dtype=np.float64).tolist()))


def _load_problem(args) -> ProblemCoefficients:
    name = args.problem
    if name in CATALOG_NAMES:
        return catalog(name)
    if name.endswith(".json") and os.path.exists(name):
        with open(name) as fh:
            return coefficients_from_json(fh.read())
    raise CoefficientError(
        f"unknown problem {name!r}: expected one of {', '.join(CATALOG_NAMES)} "
        "or a path to a JSON coefficient descriptor")


def _load_mesh(args) -> SimplicialMesh:
    if args.mesh in ("mesh45", "mesh135"):
        if args.J is None:
            raise MeshError("--J is required for structured meshes")
        return generate_structured(args.mesh, args.J)
    if args.mesh == "import":
        if not args.node or not args.ele:
            raise MeshError("--node and --ele are required with --mesh import")
        return load_triangle(args.node, args.ele)
    raise MeshError(f"unknown mesh kind {args.mesh!r}")


def _reprs(x: np.ndarray) -> list:
    return list(map(repr, x.tolist()))


def _ints(x: np.ndarray) -> Iterator[str]:
    # an iterator, not a list: the row join reads it once, and a list of
    # strings would hold more memory than the ints it formats
    return map(str, x.tolist())


def _bits(x: np.ndarray) -> list:
    return np.where(x, "1", "0").tolist()


def _edge_columns(report) -> list:
    d = report.delaunay
    if d is None:
        return []
    return [*map(_ints, d.edges.T), *map(_ints, d.elements.T), _reprs(d.lhs),
            _reprs(d.theta), _reprs(d.lhs_theta_free), _bits(d.pass_weak),
            _bits(d.pass_strict)]


def _element_columns(report) -> list:
    nob = report.nonobtuse
    dominated = np.isnan(nob.rhs_bound)
    return [map(str, range(len(dominated))), _reprs(nob.alpha_max),
            np.where(dominated, "", _reprs(nob.rhs_bound)).tolist(),
            _bits(nob.pass_weak), _bits(nob.pass_strict),
            np.where(dominated, DOMINATED, "").tolist()]


def cmd_analyze(args) -> int:
    coeffs = _load_problem(args)
    mesh = _load_mesh(args)
    config = RunConfig("analyze", args.problem, args.mesh, J=args.J,
                       node=args.node, ele=args.ele, out=args.out)
    system = assemble(mesh, coeffs)
    report = evaluate_conditions(mesh, system.table)
    cert = m_matrix_certificate(system.A)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), config, {
        "mesh": {"label": mesh.label, "n_vertices": mesh.n_vertices,
                 "n_elements": mesh.n_elements, "n_interior": mesh.n_interior},
        "conditions": {
            "alpha_max_metric": report.alpha_max_metric,
            "alpha_sum_metric": report.alpha_sum_metric,
            "nonobtuse_weak": report.nonobtuse_weak,
            "nonobtuse_strict": report.nonobtuse_strict,
            "delaunay_weak": report.delaunay_weak,
            "delaunay_strict": report.delaunay_strict,
            "interiorly_connected": report.interiorly_connected,
            "strict_pass": report.strict_pass,
            "weak_pass": report.weak_pass,
        },
        "certificate": {
            "is_z_matrix": cert.is_z_matrix,
            "z_violation": cert.z_violation,
            "is_irreducible": cert.is_irreducible,
            "n_strong_components": cert.n_strong_components,
            "semipositive": cert.semipositive,
            "is_m_matrix": cert.is_m_matrix,
            "certified_irreducible_m_matrix": cert.certified_irreducible_m_matrix,
            "method": cert.method,
        },
    })
    _write_csv(os.path.join(args.out, "per_edge.csv"), config,
               ["vertex_j", "vertex_k", "element_K", "element_Kp", "lhs",
                "theta", "lhs_theta_free", "pass_weak", "pass_strict"],
               zip(*_edge_columns(report)))
    _write_csv(os.path.join(args.out, "per_element.csv"), config,
               ["element", "alpha_max", "rhs_bound", "pass_weak",
                "pass_strict", "reason"],
               zip(*_element_columns(report)))

    print(f"mesh {mesh.label}: alpha_max = {report.alpha_max_metric:.6f} rad, "
          f"alpha_sum = {report.alpha_sum_metric if report.alpha_sum_metric is not None else 'n/a'}")
    print(f"nonobtuse: weak={report.nonobtuse_weak} strict={report.nonobtuse_strict}; "
          f"delaunay: weak={report.delaunay_weak} strict={report.delaunay_strict}; "
          f"interiorly connected={report.interiorly_connected}")
    print(f"matrix certificate: irreducible M-matrix = {cert.certified_irreducible_m_matrix}")

    if report.strict_pass:
        return EXIT_OK
    if report.weak_pass and report.interiorly_connected:
        return EXIT_WEAK
    return EXIT_FAIL


def cmd_solve(args) -> int:
    coeffs = _load_problem(args)
    mesh = _load_mesh(args)
    config = RunConfig("solve", args.problem, args.mesh, J=args.J,
                       node=args.node, ele=args.ele, k=args.k, mass=args.mass,
                       tol=args.tol, out=args.out)
    system = assemble(mesh, coeffs)
    sol = solve_smallest(system, k=args.k, mass=args.mass, tol=args.tol)
    if sol.k_converged == 0:
        print("solver failure: no eigenpair converged", file=sys.stderr)
        return EXIT_SOLVER
    cert = m_matrix_certificate(system.A, system.lu)
    props = property_suite(sol, system, cert)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, lam in enumerate(sol.eigenvalues):
        rows.append([str(i + 1), _float_repr(lam.real), _float_repr(lam.imag),
                     _float_repr(abs(lam)), _float_repr(sol.residuals[i]),
                     str(int(sol.converged[i]))])
    _write_csv(os.path.join(args.out, "eigenvalues.csv"), config,
               ["index", "re", "im", "modulus", "residual", "converged"], rows)
    _write_json(os.path.join(args.out, "properties.json"), config, {
        "mesh": {"label": mesh.label, "n_interior": system.n},
        "lambda_1": {"re": sol.eigenvalues[0].real, "im": sol.eigenvalues[0].imag},
        "k_requested": sol.k_requested,
        "k_converged": sol.k_converged,
        "krylov_dim": sol.krylov_dim,
        "n_solves": sol.n_solves,
        "properties": dataclasses.asdict(props),
        "certificate": {
            "is_m_matrix": cert.is_m_matrix,
            "is_irreducible": cert.is_irreducible,
            "certified_irreducible_m_matrix": cert.certified_irreducible_m_matrix,
        },
    })
    values = np.zeros(mesh.n_vertices)
    if sol.principal_vector is not None:
        values[mesh.interior_vertices] = sol.principal_vector
    write_vtk(os.path.join(args.out, "principal.vtk"), mesh, values)

    lam1 = sol.eigenvalues[0]
    gap = props.modulus_gap
    max_res = float(sol.residuals[sol.converged].max()) if sol.converged.any() else float("nan")
    print(f"lambda_1      = {lam1.real:.10g}"
          + (f" + {lam1.imag:.3g}i" if lam1.imag else ""))
    print(f"modulus gap   = {gap:.6g}" if gap is not None else "modulus gap   = n/a")
    print(f"undershoot    = {props.undershoot if props.undershoot is not None else 'n/a'}")
    print(f"certificate   = irreducible M-matrix: "
          f"{'yes' if cert.certified_irreducible_m_matrix else 'no'}")
    print(f"max residual  = {max_res:.3g} over {sol.k_converged} converged pairs")
    k_eff = min(sol.k_requested, system.n)
    if sol.k_converged < k_eff:
        print(f"solver failure: {sol.k_converged} of {k_eff} eigenpairs converged",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_converge(args) -> int:
    coeffs = _load_problem(args)
    J_list = [int(s) for s in args.J.split(",")]
    config = RunConfig("converge", args.problem, args.mesh, J_list=tuple(J_list),
                       mass=args.mass, tol=args.tol, ref=args.ref, out=args.out)
    reference = args.ref if args.ref is not None else REFERENCE_VALUES.get(args.problem)
    if reference is None:
        raise CoefficientError(f"no reference eigenvalue known for problem "
                               f"{args.problem!r}; pass --ref")
    study = convergence_study(coeffs, args.mesh, J_list, reference,
                              mass=args.mass, tol=args.tol)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for r in study.rows:
        rows.append([str(r.J), str(r.n_interior), _float_repr(r.h), _float_repr(r.lambda1),
                     _float_repr(r.error),
                     _float_repr(r.observed_order),
                     _float_repr(r.undershoot), _float_repr(r.elapsed)])
    _write_csv(os.path.join(args.out, "convergence.csv"), config,
               ["J", "n_interior", "h", "lambda_1", "rel_error",
                "observed_order", "undershoot", "elapsed_s"], rows)
    print(f"{study.problem} on {study.mesh_kind}: reference = {study.reference}")
    for r in study.rows:
        order = f"{r.observed_order:.2f}" if r.observed_order is not None else "  --"
        print(f"  J={r.J:4d}  lambda_1={r.lambda1:.8f}  rel_error={r.error:.3e}"
              f"  order={order}")
    print(f"least-squares order: {study.slope:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eigenfem",
        description="P1 finite elements for elliptic eigenvalue problems: "
                    "mesh certification, eigensolving, convergence studies.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, structured_J=True):
        sp.add_argument("--problem", required=True,
                        help="catalog name or path to a JSON coefficient file")
        sp.add_argument("--mesh", required=True,
                        choices=["mesh45", "mesh135", "import"])
        if structured_J:
            sp.add_argument("--J", type=int, default=None,
                            help="grid resolution for structured meshes")
        sp.add_argument("--node", default=None, help="vertex file for --mesh import")
        sp.add_argument("--ele", default=None, help="element file for --mesh import")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("analyze", help="evaluate mesh conditions and certificate")
    common(sp)

    sp = sub.add_parser("solve", help="compute smallest eigenpairs and verify properties")
    common(sp)
    sp.add_argument("--k", type=int, default=6, help="number of eigenpairs")
    sp.add_argument("--mass", choices=["consistent", "lumped"], default="consistent")
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("converge", help="refinement study of lambda_1")
    common(sp, structured_J=False)
    sp.add_argument("--J", required=True,
                    help="comma-separated increasing J values, e.g. 11,21,41")
    sp.add_argument("--mass", choices=["consistent", "lumped"], default="consistent")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--ref", type=float, default=None,
                    help="reference eigenvalue (defaults to the catalog value; "
                         "required for a JSON problem)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "converge":
            return cmd_converge(args)
        return EXIT_CONFIG
    except (MeshError, CoefficientError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigenSolveError, SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
