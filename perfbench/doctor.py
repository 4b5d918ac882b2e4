"""Show that every output check rejects a doctored output.

Usage (from the repository root):

    python3 perfbench/doctor.py [--seed N]

Runs each workload's command once, checks that its real output passes,
then applies each doctoring below to a copy of the output files (never to
the sources) and checks that the workload's check now reports a problem.
Exits 0 only if the real outputs pass and every doctored one is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from run import ROOT, WORK, Runner
from workloads import (CONVERGE_MAX_ERROR, J_CONVERGE, J_SOLVE, LAPLACE_LAMBDA1 as LAMBDA1,
                       WORKLOADS)

CENTER = J_SOLVE * J_SOLVE // 2   # the centre vertex of the mesh45 grid


def edit_csv(name: str, edit):
    """Doctoring that rewrites the data rows of a CSV output with edit(header, rows)."""
    def apply(out: str) -> None:
        path = os.path.join(out, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln.split(",") for ln in lines if not ln.startswith("#")]
        header, rows = data[0], data[1:]
        edit(header, rows)
        with open(path, "w") as fh:
            fh.write("\n".join(comments + [",".join(header)] + [",".join(r) for r in rows]) + "\n")
    return apply


def set_cell(row: int, column: str, value):
    def edit(header, rows):
        col = header.index(column)
        rows[row][col] = str(value(float(rows[row][col])) if callable(value) else value)
    return edit


def drop_row(row: int):
    return lambda header, rows: rows.pop(row)


def scale_errors(factor: float):
    """Multiply every level's error by factor: the observed order stays the same."""
    def edit(header, rows):
        lam, err = header.index("lambda_1"), header.index("rel_error")
        for row in rows:
            e = factor * float(row[err])
            row[lam], row[err] = repr(LAMBDA1 * (1 + e)), repr(e)
    return edit


def edit_json(name: str, path: tuple, value):
    def apply(out: str) -> None:
        file = os.path.join(out, name)
        with open(file) as fh:
            doc = json.load(fh)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        with open(file, "w") as fh:
            json.dump(doc, fh)
    return apply


def flip_vtk_value(index: int):
    def apply(out: str) -> None:
        path = os.path.join(out, "principal.vtk")
        with open(path) as fh:
            lines = fh.read().splitlines()
        at = lines.index("LOOKUP_TABLE default") + 1 + index
        lines[at] = repr(-abs(float(lines[at])) - 0.5)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return apply


EXIT = "exit code"   # doctoring of the exit code instead of a file

DOCTORINGS = {
    "analyze-import": [
        ("exit code 2 instead of 3", EXIT, 2),
        ("last per_edge.csv row missing", edit_csv("per_edge.csv", drop_row(-1)), None),
        ("per_element.csv row 100 missing", edit_csv("per_element.csv", drop_row(100)), None),
        ("alpha_max_metric off by 1e-8 relative",
         edit_json("report.json", ("conditions", "alpha_max_metric"), lambda v: v * (1 + 1e-8)),
         None),
        ("delaunay_weak verdict true",
         edit_json("report.json", ("conditions", "delaunay_weak"), True), None),
        ("n_elements one short",
         edit_json("report.json", ("mesh", "n_elements"), lambda v: v - 1), None),
    ],
    "solve-nonnormal": [
        ("exit code 4 instead of 0", EXIT, 4),
        ("lambda_1 shifted by 1e-4 relative",
         edit_csv("eigenvalues.csv", set_cell(0, "re", lambda v: repr(v * (1 + 1e-4)))), None),
        ("lambda_1 given an imaginary part",
         edit_csv("eigenvalues.csv", set_cell(0, "im", "1e-3")), None),
        ("pair 17 not converged", edit_csv("eigenvalues.csv", set_cell(16, "converged", 0)), None),
        ("pair 30 residual 1e-6", edit_csv("eigenvalues.csv", set_cell(29, "residual", 1e-6)),
         None),
        ("pair 40 missing", edit_csv("eigenvalues.csv", drop_row(-1)), None),
        ("principal_simple false",
         edit_json("properties.json", ("properties", "principal_simple"), False), None),
        (f"principal vector entry {CENTER} negated", flip_vtk_value(CENTER), None),
    ],
    "converge-laplace": [
        ("exit code 1 instead of 0", EXIT, 1),
        (f"lambda_1 at J={J_CONVERGE[2]} above J={J_CONVERGE[1]}",
         edit_csv("convergence.csv", set_cell(2, "lambda_1", lambda v: repr(v + 0.2))), None),
        ("rel_error column off by 1%",
         edit_csv("convergence.csv", set_cell(-1, "rel_error", lambda v: repr(v * 1.01))), None),
        (f"every error x1.5, J={J_CONVERGE[-1]} above {CONVERGE_MAX_ERROR:g}",
         edit_csv("convergence.csv", scale_errors(1.5)), None),
        (f"J={J_CONVERGE[-1]} row missing", edit_csv("convergence.csv", drop_row(-1)), None),
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"doctor-{os.getpid():07d}")
    os.makedirs(work)
    ok = True
    try:
        for name, doctorings in DOCTORINGS.items():
            workload = WORKLOADS[name]()
            workload.prepare(args.seed, work)
            real = os.path.join(work, name)
            result = Runner(work, time.perf_counter()).child([], workload.argv(real))
            if "error" in result:
                print(f"{name}: command failed: {result['error']}")
                return 1
            problems = workload.check(real, result["exit_code"])
            print(f"{name}: real output {'passes' if not problems else problems}")
            ok = ok and not problems
            for label, doctor, exit_code in doctorings:
                copy = os.path.join(work, "doctored")
                shutil.copytree(real, copy)
                if doctor is EXIT:
                    problems = workload.check(copy, exit_code)
                else:
                    doctor(copy)
                    problems = workload.check(copy, result["exit_code"])
                shutil.rmtree(copy)
                verdict = "rejected" if problems else "NOT REJECTED"
                print(f"  {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
                ok = ok and bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
