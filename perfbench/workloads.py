"""The three benchmark workloads: inputs, command lines and output checks.

Each workload is one ``eigenfem`` command.  ``prepare`` builds its inputs
(from the seed where the command reads an input file) and any reference
data the checks need; ``check`` reads the files one run of the command left
in its ``--out`` directory and returns a list of problems, empty when the
output is correct.  Reference values are computed here with plain numpy and
scipy, independently of the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

# Sizes are chosen so that one command takes about 2 s: a run then holds
# 10-20 repetitions, and the median over them is steady on a shared host.
J_ANALYZE = 33          # grid points per axis of the imported mesh
JITTER = 0.2            # interior vertex jitter, as a share of the grid step
J_SOLVE = 41
K_SOLVE = 40
J_CONVERGE = (11, 21, 41)
CONVERGE_MAX_ERROR = 2e-3   # relative error at the finest level (1.54e-3 at seed)

EX5_2 = {"D": np.array([[10.0, 9.0], [9.0, 10.0]]),
         "b": np.array([50.0, -50.0]), "c": 1.0}
LAPLACE_LAMBDA1 = 2.0 * math.pi ** 2
SOLVE_TOL = 1e-10       # the default --tol of ``eigenfem solve``


# ---------------------------------------------------------------------------
# mesh helpers shared by the input generator and the reference assembly
# ---------------------------------------------------------------------------

def _grid(J: int):
    t = np.linspace(0.0, 1.0, J)
    X, Y = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    ii, jj = np.meshgrid(np.arange(J), np.arange(J), indexing="xy")
    boundary = ((ii == 0) | (ii == J - 1) | (jj == 0) | (jj == J - 1)).ravel()
    a = (np.arange(J - 1)[None, :] + J * np.arange(J - 1)[:, None]).ravel()
    return vertices, boundary, a


def _mesh45(J: int):
    vertices, boundary, a = _grid(J)
    b, c, d = a + 1, a + J + 1, a + J
    elements = np.empty((2 * a.size, 3), dtype=np.int64)
    elements[0::2] = np.column_stack([a, b, c])
    elements[1::2] = np.column_stack([a, c, d])
    return vertices, elements, boundary


def jittered_mesh(seed: int, J: int = J_ANALYZE):
    """J x J unit-square grid, interior vertices jittered, one random diagonal per cell."""
    rng = np.random.default_rng(seed)
    vertices, boundary, a = _grid(J)
    h = 1.0 / (J - 1)
    shift = rng.uniform(-JITTER * h, JITTER * h, size=vertices.shape)
    vertices = vertices + np.where(boundary[:, None], 0.0, shift)
    b, c, d = a + 1, a + J + 1, a + J
    flip = rng.random(a.size) < 0.5
    first = np.where(flip[:, None], np.column_stack([a, b, d]), np.column_stack([a, b, c]))
    second = np.where(flip[:, None], np.column_stack([b, c, d]), np.column_stack([a, c, d]))
    elements = np.empty((2 * a.size, 3), dtype=np.int64)
    elements[0::2] = first
    elements[1::2] = second
    return vertices, elements, boundary


def _edge_counts(elements: np.ndarray) -> np.ndarray:
    """How many elements hold each edge of the mesh."""
    pairs = np.concatenate([elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [0, 2]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0, return_counts=True)[1]


def write_triangle(path_stem: str, vertices, elements, boundary) -> tuple[str, str]:
    """Write 1-based Triangle .node/.ele files with boundary markers."""
    node, ele = path_stem + ".node", path_stem + ".ele"
    with open(node, "w") as fh:
        fh.write(f"{len(vertices)} 2 0 1\n")
        for i, (x, y) in enumerate(vertices.tolist()):
            fh.write(f"{i + 1} {x!r} {y!r} {int(boundary[i])}\n")
    with open(ele, "w") as fh:
        fh.write(f"{len(elements)} 3 0\n")
        for k, (p, q, r) in enumerate(elements.tolist()):
            fh.write(f"{k + 1} {p + 1} {q + 1} {r + 1}\n")
    return node, ele


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------

def _ex5_5_diffusion(x: np.ndarray, k: float) -> np.ndarray:
    """Rotating anisotropic diffusion of problem ex5_5 at points x, shape (..., 2, 2)."""
    sx, sy = np.sin(x[..., 0]), np.sin(x[..., 1])
    theta = math.pi * sx * sy
    ct, st = np.cos(theta), np.sin(theta)
    d1 = k * (1.0 - 0.5 * sx * sy)
    d2 = 1.0 + 0.5 * np.cos(x[..., 0]) * np.cos(x[..., 1])
    off = (d1 - d2) * ct * st
    return np.stack([np.stack([d1 * ct * ct + d2 * st * st, off], -1),
                     np.stack([off, d1 * st * st + d2 * ct * ct], -1)], -2)


def _barycentric_gradients(X: np.ndarray) -> np.ndarray:
    """(N, 3, 2) gradients of the hat functions of triangles X (N, 3, 2)."""
    V = np.transpose(X[:, 1:] - X[:, :1], (0, 2, 1))
    Vinv = np.linalg.inv(V)
    return np.concatenate([-Vinv.sum(axis=1, keepdims=True), Vinv], axis=1)


def alpha_max_metric(vertices, elements, k: float = 10.0) -> float:
    """Largest metric angle over the mesh, D_K averaged at the edge midpoints."""
    X = vertices[elements]
    mid = 0.5 * (X + np.roll(X, -1, axis=1))
    D = _ex5_5_diffusion(mid, k).mean(axis=1)
    G = _barycentric_gradients(X)
    Q = G / np.linalg.norm(G, axis=2, keepdims=True)
    M = np.einsum("njd,nde,nke->njk", Q, D, Q)
    s = np.sqrt(np.einsum("njj->nj", M))
    C = -M / (s[:, :, None] * s[:, None, :])
    c_min = np.minimum(np.minimum(C[:, 0, 1], C[:, 0, 2]), C[:, 1, 2])
    return float(np.arccos(np.clip(c_min, -1.0, 1.0)).max())


def constant_system(J: int, D, b, c):
    """Interior P1 matrices A, B of -div(D grad u) + b.grad u + c u on mesh45.

    With constant coefficients the degree-2 rule the package uses is exact,
    so the closed forms below give the same matrices up to rounding.
    """
    vertices, elements, boundary = _mesh45(J)
    X = vertices[elements]
    G = _barycentric_gradients(X)
    vol = 0.5 * np.abs(np.linalg.det(X[:, 1:] - X[:, :1]))
    mass = (np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0)[None] * vol[:, None, None]
    stiff = (vol[:, None, None] * np.einsum("njd,de,nke->njk", G, D, G)
             + (vol / 3.0)[:, None, None] * (G @ b)[:, None, :]
             + c * mass)
    interior = np.full(len(vertices), -1)
    interior[~boundary] = np.arange(int((~boundary).sum()))
    idx = interior[elements]
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = int((~boundary).sum())

    def build(vals):
        return sp.csr_matrix((vals.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))

    return vertices, boundary, build(stiff), build(mass)


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def _csv_rows(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _vtk_points_and_values(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(lines[4].split()[1])
    points = np.array([[float(t) for t in ln.split()] for ln in lines[5:5 + n]])
    start = lines.index("LOOKUP_TABLE default") + 1
    values = np.array([float(t) for t in lines[start:start + n]])
    if len(values) != n:
        raise ValueError("principal.vtk holds fewer point values than points")
    return points, values


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class AnalyzeImport:
    """analyze ex5_5k10 on a seeded, jittered, randomly cut 33 x 33 mesh."""

    name = "analyze-import"
    expected_exit = 3

    def prepare(self, seed: int, work: str) -> dict:
        vertices, elements, boundary = jittered_mesh(seed)
        self.node, self.ele = write_triangle(os.path.join(work, "input"),
                                             vertices, elements, boundary)
        counts = _edge_counts(elements)
        self.n_vertices = len(vertices)
        self.n_elements = len(elements)
        self.n_interior = int((~boundary).sum())
        self.n_internal_edges = int((counts == 2).sum())
        self.alpha_max = alpha_max_metric(vertices, elements)
        return {"seed": seed, "vertices": self.n_vertices, "elements": self.n_elements,
                "internal_edges": self.n_internal_edges, "interior": self.n_interior}

    def argv(self, out: str) -> list[str]:
        return ["analyze", "--problem", "ex5_5k10", "--mesh", "import",
                "--node", self.node, "--ele", self.ele, "--out", out]

    def check(self, out: str, exit_code: int) -> list[str]:
        bad = []
        if exit_code != self.expected_exit:
            bad.append(f"exit code {exit_code}, expected {self.expected_exit}")
        report = _json(os.path.join(out, "report.json"))
        mesh = report["mesh"]
        want = {"n_vertices": self.n_vertices, "n_elements": self.n_elements,
                "n_interior": self.n_interior}
        for key, value in want.items():
            if mesh.get(key) != value:
                bad.append(f"report.json mesh.{key} = {mesh.get(key)}, expected {value}")
        cond = report["conditions"]
        for key in ("nonobtuse_weak", "nonobtuse_strict", "delaunay_weak",
                    "delaunay_strict", "strict_pass", "weak_pass"):
            if cond.get(key) is not False:
                bad.append(f"verdict {key} = {cond.get(key)}, expected false")
        if _rel(float(cond["alpha_max_metric"]), self.alpha_max) > 1e-9:
            bad.append(f"alpha_max_metric {cond['alpha_max_metric']!r} differs from "
                       f"the reference {self.alpha_max!r}")
        edges = _csv_rows(os.path.join(out, "per_edge.csv"))
        if len(edges) != self.n_internal_edges:
            bad.append(f"per_edge.csv has {len(edges)} rows, expected {self.n_internal_edges}")
        elif len({(r["vertex_j"], r["vertex_k"]) for r in edges}) != len(edges):
            bad.append("per_edge.csv repeats an edge")
        elems = _csv_rows(os.path.join(out, "per_element.csv"))
        if sorted(int(r["element"]) for r in elems) != list(range(self.n_elements)):
            bad.append(f"per_element.csv does not hold one row per element "
                       f"({len(elems)} rows for {self.n_elements} elements)")
        return bad


class SolveNonnormal:
    """solve ex5_2 (strong convection, nonnormal pencil) on mesh45, J=41, k=40."""

    name = "solve-nonnormal"
    expected_exit = 0

    def prepare(self, seed: int, work: str) -> dict:
        vertices, boundary, A, B = constant_system(J_SOLVE, **EX5_2)
        self.A, self.B = A, B
        self.points = vertices
        self.interior = ~boundary
        vals = eigs(A.tocsc(), k=6, M=B.tocsc(), sigma=0.0, which="LM",
                    v0=np.ones(A.shape[0]), return_eigenvectors=False)
        self.lambda1 = complex(vals[np.argmin(np.abs(vals))])
        self.maxabs_A = float(np.abs(A.data).max())
        self.maxabs_B = float(np.abs(B.data).max())
        return {"seed": seed, "n": A.shape[0], "nnz_A": int(A.nnz),
                "oracle_lambda1": self.lambda1.real}

    def argv(self, out: str) -> list[str]:
        return ["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", str(J_SOLVE),
                "--k", str(K_SOLVE), "--out", out]

    def _threshold(self, lam: float) -> float:
        return SOLVE_TOL * (self.maxabs_A + abs(lam) * self.maxabs_B)

    def check(self, out: str, exit_code: int) -> list[str]:
        bad = []
        if exit_code != self.expected_exit:
            bad.append(f"exit code {exit_code}, expected {self.expected_exit}")
        rows = _csv_rows(os.path.join(out, "eigenvalues.csv"))
        if len(rows) != K_SOLVE:
            bad.append(f"eigenvalues.csv has {len(rows)} pairs, expected {K_SOLVE}")
        for r in rows:
            lam = complex(float(r["re"]), float(r["im"]))
            if r["converged"] != "1":
                bad.append(f"pair {r['index']} is not flagged converged")
            if not float(r["residual"]) <= self._threshold(abs(lam)):
                bad.append(f"pair {r['index']} residual {r['residual']} above "
                           f"{self._threshold(abs(lam)):.3g}")
        if not rows:
            return bad
        lam1 = complex(float(rows[0]["re"]), float(rows[0]["im"]))
        if lam1.imag != 0.0:
            bad.append(f"lambda_1 = {lam1} is not real")
        if _rel(lam1.real, self.lambda1.real) > 1e-5:
            bad.append(f"lambda_1 = {lam1.real!r} differs from the scipy eigs "
                       f"reference {self.lambda1.real!r} by more than 1e-5")
        props = _json(os.path.join(out, "properties.json"))
        if props.get("k_converged") != K_SOLVE:
            bad.append(f"k_converged = {props.get('k_converged')}, expected {K_SOLVE}")
        for key in ("principal_simple", "sign_preserving", "certificate_predicts"):
            if props["properties"].get(key) is not True:
                bad.append(f"property {key} = {props['properties'].get(key)}, expected true")
        points, values = _vtk_points_and_values(os.path.join(out, "principal.vtk"))
        if points.shape != (len(self.points), 3) or \
                np.abs(points[:, :2] - self.points).max() > 1e-12:
            bad.append("principal.vtk points do not match the mesh45 grid")
            return bad
        u = values[self.interior]
        u = u / u[np.argmax(np.abs(u))]
        res = np.linalg.norm(self.A @ u - lam1.real * (self.B @ u)) / np.linalg.norm(u)
        if not res <= self._threshold(lam1.real):
            bad.append(f"principal.vtk vector residual {res:.3g} above "
                       f"{self._threshold(lam1.real):.3g}")
        if u.min() < -1e-10:
            bad.append(f"principal.vtk vector changes sign (min {u.min():.3g})")
        return bad


class ConvergeLaplace:
    """converge laplace on mesh45 over J = 11, 21, 41 against 2 pi^2."""

    name = "converge-laplace"
    expected_exit = 0

    def prepare(self, seed: int, work: str) -> dict:
        return {"seed": seed, "J": list(J_CONVERGE)}

    def argv(self, out: str) -> list[str]:
        return ["converge", "--problem", "laplace", "--mesh", "mesh45",
                "--J", ",".join(str(J) for J in J_CONVERGE), "--out", out]

    def check(self, out: str, exit_code: int) -> list[str]:
        bad = []
        if exit_code != self.expected_exit:
            bad.append(f"exit code {exit_code}, expected {self.expected_exit}")
        rows = _csv_rows(os.path.join(out, "convergence.csv"))
        if [int(r["J"]) for r in rows] != list(J_CONVERGE):
            bad.append(f"convergence.csv levels {[r['J'] for r in rows]}, "
                       f"expected {list(J_CONVERGE)}")
            return bad
        lam = np.array([float(r["lambda_1"]) for r in rows])
        if not (np.all(np.diff(lam) < 0.0) and np.all(lam > LAPLACE_LAMBDA1)):
            bad.append(f"lambda_1 {lam.tolist()} does not decrease toward 2 pi^2")
        err = np.abs(lam - LAPLACE_LAMBDA1) / LAPLACE_LAMBDA1
        reported = np.array([float(r["rel_error"]) for r in rows])
        if np.abs(reported - err).max() > 1e-12:
            bad.append("rel_error column does not match |lambda_1 - 2 pi^2| / 2 pi^2")
        order = -np.polyfit(np.log(np.array(J_CONVERGE, dtype=float)), np.log(err), 1)[0]
        if not 1.9 <= order <= 2.2:
            bad.append(f"least-squares order {order:.4f} outside [1.9, 2.2]")
        if not err[-1] < CONVERGE_MAX_ERROR:
            bad.append(f"rel_error at J={J_CONVERGE[-1]} is {err[-1]:.4g}, "
                       f"not below {CONVERGE_MAX_ERROR:g}")
        return bad


WORKLOADS = {w.name: w for w in (AnalyzeImport, SolveNonnormal, ConvergeLaplace)}
