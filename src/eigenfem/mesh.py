"""Simplicial meshes: construction, structured generators, file formats.

A mesh stores vertices, positively oriented elements, and a boundary flag
per vertex.  Dirichlet problems use only the interior vertices, so every
mesh carries a dense numbering of its interior vertices in ``interior_index``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MeshError

# Vertices closer than this are treated as duplicates on ingestion.
DUPLICATE_TOL = 1e-12
# Relative threshold (against the Hadamard bound of the edge matrix) below
# which an element counts as degenerate.
DEGENERATE_REL_TOL = 1e-14


@dataclass(frozen=True)
class SimplicialMesh:
    """Conforming simplicial mesh in dimension 2 or 3.

    Attributes
    ----------
    dim : int
        Spatial dimension (2 or 3).
    vertices : (n_vertices, dim) float array
    elements : (n_elements, dim+1) int array
        Vertex indices per element, positively oriented.
    boundary : (n_vertices,) bool array
        True for vertices where the homogeneous Dirichlet condition holds.
    interior_index : (n_vertices,) int array
        Dense 0..n_interior-1 numbering of interior vertices, -1 on the
        boundary.  Row/column i of an assembled system corresponds to the
        vertex v with interior_index[v] == i.
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray
    interior_index: np.ndarray = field(repr=False)
    label: str = "custom"

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(~self.boundary))

    @property
    def interior_vertices(self) -> np.ndarray:
        """Vertex ids of interior vertices in increasing order."""
        return np.flatnonzero(~self.boundary)

    @cached_property
    def edges(self) -> MeshEdges:
        """Edge -> element incidence (mesh_edges), built on first read and
        kept.  The Delaunay-type check and the connectivity check share it."""
        return mesh_edges(self)

    @classmethod
    def from_arrays(cls, dim, vertices, elements, boundary,
                    label: str = "custom") -> "SimplicialMesh":
        """Validate, orient, and freeze raw mesh arrays.

        Raises MeshError for out-of-range or repeated element indices,
        duplicate vertices, degenerate (zero-volume) elements, and
        boundary flags inconsistent with the element-incidence of facets.
        Negatively oriented elements are repaired by swapping the last
        two vertices.
        """
        if dim not in (2, 3):
            raise MeshError(f"dimension must be 2 or 3, got {dim}")
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        boundary = np.ascontiguousarray(boundary, dtype=bool)
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise MeshError(f"vertices must have shape (n, {dim})")
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise MeshError(f"elements must have shape (n, {dim + 1})")
        if boundary.shape != (vertices.shape[0],):
            raise MeshError("boundary flags must have one entry per vertex")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")

        n_v = vertices.shape[0]
        if elements.size and (elements.min() < 0 or elements.max() >= n_v):
            raise MeshError("element vertex index out of range")
        ordered = np.sort(elements, axis=1)
        repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
        if repeats.size:
            raise MeshError(f"element {repeats[0]} repeats a vertex index")

        _check_duplicate_vertices(vertices)

        X = vertices[elements]
        V = np.swapaxes(X[:, 1:] - X[:, :1], 1, 2)
        # only the orientation and degeneracy verdicts read det
        if dim == 2:
            det = V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] * V[:, 1, 0]
        else:
            det = np.linalg.det(V)
        scale = np.prod(np.linalg.norm(V, axis=1), axis=1)
        degenerate = np.flatnonzero(np.abs(det) <= DEGENERATE_REL_TOL * np.maximum(scale, 1e-300))
        if degenerate.size:
            raise MeshError(f"element {degenerate[0]} is degenerate (zero volume)")
        elements = elements.copy()
        flip = det < 0.0
        elements[flip, dim - 1], elements[flip, dim] = elements[flip, dim], elements[flip, dim - 1]

        interior_index = np.full(n_v, -1, dtype=np.int64)
        ids = np.flatnonzero(~boundary)
        interior_index[ids] = np.arange(ids.size)

        for a in (vertices, elements, boundary, interior_index):
            a.setflags(write=False)
        mesh = cls(dim, vertices, elements, boundary, interior_index, label)
        _check_boundary_flags(mesh)
        return mesh


def _check_duplicate_vertices(vertices: np.ndarray) -> None:
    """Reject two vertices within DUPLICATE_TOL (Euclidean) of each other.

    Sort and sweep: two vertices within the tolerance have projections onto
    a fixed unit direction within the tolerance too (plus rounding slack),
    so they sit at some lag L in projection order with every gap at lag L
    that small.  Lags grow until no pair is close enough in projection;
    each candidate pair is kept only if its squared distance is at most
    DUPLICATE_TOL**2.
    """
    n, d = vertices.shape
    if n < 2:
        return
    u = np.sqrt(np.arange(1.0, d + 1.0))
    u /= np.linalg.norm(u)
    proj = vertices @ u
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    # bounds the rounding of two projections and of their difference
    slack = 32.0 * np.finfo(np.float64).eps * float(np.abs(vertices).max())
    reach = DUPLICATE_TOL + slack
    for lag in range(1, n):
        near = np.flatnonzero(proj[lag:] - proj[:-lag] <= reach)
        if near.size == 0:
            return
        i, j = order[near], order[near + lag]
        diff = vertices[i] - vertices[j]
        hit = np.flatnonzero(np.sum(diff * diff, axis=1) <= DUPLICATE_TOL ** 2)
        if hit.size:
            a, b = sorted((int(i[hit[0]]), int(j[hit[0]])))
            raise MeshError(f"vertices {a} and {b} coincide within {DUPLICATE_TOL}")


def _run_starts(change: np.ndarray, n: int) -> np.ndarray:
    """Run starts of a sorted sequence of n items whose neighbours differ
    where change holds, closed by n."""
    return np.append(np.flatnonzero(np.concatenate(([n > 0], change))), n)


def _row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an integer array lexicographically and group equal rows.

    Equal rows keep their order.  Returns (order, starts): rows[order] is
    sorted and its r-th run of equal rows is rows[order][starts[r]:starts[r + 1]].
    """
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    return order, _run_starts(np.any(s[1:] != s[:-1], axis=1), len(s))


def _check_boundary_flags(mesh: SimplicialMesh) -> None:
    """Every vertex on a facet incident to a single element must be flagged,
    and no facet may be shared by more than two elements."""
    d = mesh.dim
    local = np.array(list(itertools.combinations(range(d + 1), d)))
    facets = np.sort(mesh.elements, axis=1)[:, local].reshape(-1, d)
    order, starts = _row_runs(facets)
    facets, counts = facets[order[starts[:-1]]], np.diff(starts)
    shared = np.flatnonzero(counts > 2)
    if shared.size:
        f = shared[0]
        raise MeshError(f"facet {tuple(facets[f].tolist())} shared by {counts[f]} elements")
    on_hull = facets[counts == 1].ravel()
    unflagged = on_hull[~mesh.boundary[on_hull]]
    if unflagged.size:
        raise MeshError(
            f"vertex {unflagged[0]} lies on a boundary facet but is not "
            "flagged as boundary"
        )


# ---------------------------------------------------------------------------
# structured generators on the unit square
# ---------------------------------------------------------------------------

def generate_structured(kind: str, J: int) -> SimplicialMesh:
    """Uniform J x J grid of the unit square split into right triangles.

    kind "mesh45" cuts each cell along the southwest-northeast diagonal,
    "mesh135" along the southeast-northwest diagonal.  J is the number of
    grid points per axis, so the grid spacing is 1/(J-1).
    """
    if not isinstance(J, (int, np.integer)) or isinstance(J, bool):
        raise MeshError("J must be an integer")
    if J < 2:
        raise MeshError("J must be at least 2")
    kind = kind.lower()
    if kind not in ("mesh45", "mesh135"):
        raise MeshError(f"unknown structured mesh kind {kind!r}")

    t = np.linspace(0.0, 1.0, J)
    X, Y = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cell (ix, iy) has corners a (southwest), b = a + 1, c = a + J + 1, d = a + J
    a = (np.arange(J - 1)[:, None] * J + np.arange(J - 1)).ravel()
    b, c, d = a + 1, a + J + 1, a + J
    if kind == "mesh45":
        pair = ((a, b, c), (a, c, d))
    else:
        pair = ((a, b, d), (b, c, d))
    elements = np.stack([np.column_stack(tri) for tri in pair], axis=1).reshape(-1, 3)

    ii, jj = np.meshgrid(np.arange(J), np.arange(J), indexing="xy")
    on_edge = (ii == 0) | (ii == J - 1) | (jj == 0) | (jj == J - 1)
    boundary = on_edge.ravel()
    return SimplicialMesh.from_arrays(2, vertices, elements, boundary,
                                      label=f"{kind}-J{J}")


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeshEdges:
    """Mesh edges as sorted vertex pairs, in lexicographic order; edge e
    lies in elements[offsets[e]:offsets[e+1]], in increasing element id."""

    vertices: np.ndarray
    offsets: np.ndarray
    elements: np.ndarray


def mesh_edges(mesh: SimplicialMesh) -> MeshEdges:
    """Sorted edge -> element incidence of the mesh.

    One stable argsort of the key v0 * n_vertices + v1 of each sorted vertex
    pair orders the pairs lexicographically.  The pairs are listed element
    by element, so the copies of an edge stay in increasing element id.
    """
    local = np.array(list(itertools.combinations(range(mesh.dim + 1), 2)))
    pairs = np.sort(mesh.elements[:, local], axis=-1).reshape(-1, 2)
    key = pairs[:, 0] * mesh.n_vertices + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = _run_starts(key[1:] != key[:-1], len(key))
    return MeshEdges(pairs[order[starts[:-1]]], starts, order // len(local))


@dataclass(frozen=True)
class InteriorConnectivity:
    """Connectivity of the graph of interior vertices joined by mesh edges."""

    connected: bool
    components: list
    has_interior: bool


def interior_connectivity(mesh: SimplicialMesh) -> InteriorConnectivity:
    """Connected components of the interior vertices joined by mesh edges.

    A mesh with no interior vertices is vacuously connected; has_interior
    is False there so callers can tell the vacuous case apart.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    interior = mesh.interior_vertices
    if interior.size == 0:
        return InteriorConnectivity(True, [], False)

    ends = mesh.interior_index[mesh.edges.vertices]
    ends = ends[np.all(ends >= 0, axis=1)]
    n = interior.size
    graph = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=False)
    groups = np.split(interior[np.argsort(labels, kind="stable")],
                      np.cumsum(np.bincount(labels))[:-1])
    components = sorted((g.tolist() for g in groups), key=lambda c: c[0])
    return InteriorConnectivity(n_comp == 1, components, True)


# ---------------------------------------------------------------------------
# Triangle .node / .ele text format (2D only, boundary markers required)
# ---------------------------------------------------------------------------

def _data_lines(lines):
    for line in lines:
        toks = line.split("#", 1)[0].split()
        if toks:
            yield toks


def _header(text: str, kind: str) -> tuple[list, list]:
    """The header fields of Triangle text and the lines after the header."""
    lines = text.splitlines()
    for i, toks in enumerate(line.split("#", 1)[0].split() for line in lines):
        if toks:
            return toks, lines[i + 1:]
    raise MeshError(f"{kind} file is empty")


def _table(body: list, fields: list, count: int) -> np.ndarray:
    """The data lines of body as count records of the given fields, read by
    numpy's C reader.

    Raises ValueError (or a numpy warning) when a line holds the wrong number
    of fields or a field does not convert, when body holds other than count
    data lines, and when the longest line is too short to hold the fields, so
    that a bogus header never sizes the reader's records.
    """
    width = sum(field[2] if len(field) == 3 else 1 for field in fields)
    if 2 * width - 1 > max(map(len, body), default=0):
        raise ValueError("no line holds the fields")
    with warnings.catch_warnings():
        # numpy < 2 reads "1.0" into an integer with a DeprecationWarning, and
        # a body without data lines warns
        warnings.simplefilter("error")
        table = np.loadtxt(body, np.dtype(fields), comments="#", ndmin=1)
    if len(table) != count:
        raise ValueError("the header miscounts the data lines")
    return table


def _columns(body: list, count: int, noun: str, want: int, kind: str) -> list:
    """The fields of the data lines, column by column, read one line at a
    time: the diagnostic after _table has rejected the lines.  There must be
    count data lines, each holding exactly want fields."""
    rows = list(_data_lines(body))
    if len(rows) != count:
        raise MeshError(f"{kind} header promises {count} {noun}, found {len(rows)}")
    for r, toks in enumerate(rows):
        if len(toks) != want:
            raise MeshError(f"{kind} line {r + 2}: expected {want} fields, got {len(toks)}")
    return list(zip(*rows))


def _stack(conv, dtype, *cols) -> np.ndarray:
    """Equal-length field columns converted by conv, as an (n, len(cols)) array."""
    flat = itertools.chain.from_iterable(zip(*cols))
    return np.fromiter(map(conv, flat), dtype, len(cols) * len(cols[0])).reshape(-1, len(cols))


# Both parsers read the data lines with _table.  Where it fails, the lines are
# read again by _columns and _stack with int() and float(): that raises the
# error naming the bad line, and it accepts the few spellings int() and
# float() take but numpy does not (digit-group underscores, non-ASCII digits).
# Ignored columns (ids of .ele, attributes) are read as one-character strings,
# so any token passes there.

def parse_node(text: str):
    """Parse .node text into (vertices, boundary, index_base)."""
    header, body = _header(text, ".node")
    if len(header) != 4:
        raise MeshError(".node header must have 4 fields")
    n_v, dim, n_attr, marker_flag = (int(tok) for tok in header)
    if dim != 2:
        raise MeshError(f".node dimension must be 2, got {dim}")
    if marker_flag != 1:
        raise MeshError(".node file lacks boundary markers; markers are "
                        "required and are never inferred from geometry")
    if n_v < 1:
        raise MeshError(".node vertex count must be positive")

    try:
        table = _table(body, [("id", np.int64), ("xy", np.float64, 2),
                              ("attr", "U1", n_attr), ("marker", np.int64)], n_v)
        ids, coords, markers = table["id"], table["xy"], table["marker"]
    except (ValueError, Warning):
        cols = _columns(body, n_v, "vertices", 1 + 2 + n_attr + 1, ".node")
        ids, markers = _stack(int, np.int64, cols[0], cols[-1]).T
        coords = _stack(float, np.float64, cols[1], cols[2])

    base = int(ids.min())
    if base not in (0, 1):
        raise MeshError(f".node indices must start at 0 or 1, not {base}")
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(base, base + n_v)):
        raise MeshError(".node vertex numbering must be consecutive")
    return coords[order], markers[order] != 0, base


def parse_ele(text: str, n_vertices: int, base: int) -> np.ndarray:
    """Parse .ele text into a 0-based (n, 3) element array."""
    header, body = _header(text, ".ele")
    if len(header) != 3:
        raise MeshError(".ele header must have 3 fields")
    n_e, nodes_per, n_attr = (int(tok) for tok in header)
    if nodes_per != 3:
        raise MeshError(f"only 3-node triangles are supported, got {nodes_per}")
    if n_e < 1:
        raise MeshError(".ele element count must be positive")

    try:
        table = _table(body, [("id", "U1"), ("vertices", np.int64, 3),
                              ("attr", "U1", n_attr)], n_e)
        elems = table["vertices"] - base
    except (ValueError, Warning):
        cols = _columns(body, n_e, "elements", 1 + 3 + n_attr, ".ele")
        elems = _stack(int, np.int64, *cols[1:4]) - base
    if elems.min() < 0 or elems.max() >= n_vertices:
        raise MeshError(".ele references a vertex outside the .node file")
    return elems


def import_mesh(node_text: str, ele_text: str) -> SimplicialMesh:
    vertices, boundary, base = parse_node(node_text)
    elements = parse_ele(ele_text, vertices.shape[0], base)
    return SimplicialMesh.from_arrays(2, vertices, elements, boundary,
                                      label="imported-triangle")


def load_triangle(node_path, ele_path) -> SimplicialMesh:
    with open(node_path, "r", encoding="utf-8") as fh:
        node_text = fh.read()
    with open(ele_path, "r", encoding="utf-8") as fh:
        ele_text = fh.read()
    return import_mesh(node_text, ele_text)


def export_triangle(mesh: SimplicialMesh) -> tuple[str, str]:
    """Render a 2D mesh as 1-based .node/.ele text with boundary markers."""
    if mesh.dim != 2:
        raise MeshError("Triangle export is 2D only")
    out = [f"{mesh.n_vertices} 2 0 1"]
    for i, (x, y) in enumerate(mesh.vertices):
        out.append(f"{i + 1} {x:.17g} {y:.17g} {1 if mesh.boundary[i] else 0}")
    node_text = "\n".join(out) + "\n"

    out = [f"{mesh.n_elements} 3 0"]
    for k, (a, b, c) in enumerate(mesh.elements):
        out.append(f"{k + 1} {a + 1} {b + 1} {c + 1}")
    ele_text = "\n".join(out) + "\n"
    return node_text, ele_text
