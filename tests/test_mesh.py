"""Tests for mesh construction, validation, connectivity and file I/O."""

import itertools

import numpy as np
import pytest

from eigenfem import (MeshError, SimplicialMesh, export_triangle,
                      generate_structured, import_mesh, interior_connectivity,
                      load_triangle, mesh_spacing)
from eigenfem.element_geometry import simplex_geometry
from eigenfem.mesh import DUPLICATE_TOL, mesh_edges, parse_ele, parse_node

from oracles import loop_parse_ele, loop_parse_node
from test_element_table import jittered_triangle_mesh, kuhn_cube


def test_structured_counts():
    for J in (2, 3, 5, 9):
        for kind in ("mesh45", "mesh135"):
            m = generate_structured(kind, J)
            assert m.n_vertices == J * J
            assert m.n_elements == 2 * (J - 1) ** 2
            assert m.n_interior == (J - 2) ** 2
            assert m.boundary.sum() == J * J - (J - 2) ** 2


def test_structured_volumes_sum_to_one():
    for kind in ("mesh45", "mesh135"):
        m = generate_structured(kind, 7)
        total = sum(simplex_geometry(m.vertices[e]).volume for e in m.elements)
        assert abs(total - 1.0) <= 1e-12


def test_structured_orientation_positive():
    # from_arrays repairs orientation, so every stored element must have
    # positive Jacobian determinant
    m = generate_structured("mesh135", 6)
    for e in m.elements:
        X = m.vertices[e]
        V = np.column_stack([X[1] - X[0], X[2] - X[0]])
        assert np.linalg.det(V) > 0


def test_interior_index_layout():
    m = generate_structured("mesh45", 4)
    ii = m.interior_index
    assert ii[m.boundary].max() == -1
    interior = ii[~m.boundary]
    assert sorted(interior) == list(range(m.n_interior))


def test_edge_patches_incidence():
    # every edge of a structured mesh belongs to one element (hull) or two
    m = generate_structured("mesh45", 5)
    edges = mesh_edges(m)
    counts = set(np.diff(edges.offsets).tolist())
    assert counts == {1, 2}
    n_edges = len(edges.vertices)
    # Euler: V - E + F = 1 for a triangulated disk (F counts triangles)
    assert m.n_vertices - n_edges + m.n_elements == 1


def test_interior_connectivity_structured():
    rep = interior_connectivity(generate_structured("mesh45", 5))
    assert rep.connected and rep.has_interior
    assert len(rep.components) == 1


def test_interior_connectivity_vacuous():
    # J=2 has no interior vertices: connected by convention, flagged
    rep = interior_connectivity(generate_structured("mesh45", 2))
    assert rep.connected
    assert not rep.has_interior
    assert rep.components == []


def test_interior_connectivity_disconnected():
    # two unit squares joined at a single boundary vertex: each square has
    # one interior vertex and no interior-interior edge crosses the joint
    def square(offset):
        m = generate_structured("mesh45", 3)
        return m.vertices + offset, m.elements, m.boundary

    v1, e1, b1 = square(np.array([0.0, 0.0]))
    v2, e2, b2 = square(np.array([1.0, 1.0]))
    # vertex (1,1) appears in both; merge by concatenation + dedup by hand
    verts = np.vstack([v1, v2])
    elems = np.vstack([e1, e2 + len(v1)])
    # drop the duplicate of (1,1): index in v2 is 0
    dup_new = len(v1)
    orig = 8  # index of (1,1) in a 3x3 grid, row-major
    assert np.allclose(v1[orig], [1.0, 1.0]) and np.allclose(v2[0], [1.0, 1.0])
    keep = np.ones(len(verts), dtype=bool)
    keep[dup_new] = False
    remap = np.cumsum(keep) - 1
    remap[dup_new] = remap[orig]
    verts = verts[keep]
    elems = remap[elems]
    bnd = np.concatenate([b1, b2[1:]])
    m = SimplicialMesh.from_arrays(2, verts, elems, bnd)
    rep = interior_connectivity(m)
    assert not rep.connected
    assert len(rep.components) == 2


def test_from_arrays_rejects_duplicate_vertices():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2], [1, 3, 2]])
    bnd = np.ones(4, dtype=bool)
    with pytest.raises(MeshError):
        SimplicialMesh.from_arrays(2, verts, elems, bnd)


def _duplicate_verdict(vertices):
    """from_arrays on the points plus a large enclosing simplex: the error
    message of the duplicate-vertex check, or None if it passes."""
    n, d = vertices.shape
    scale = 10.0 * max(1.0, float(np.abs(vertices).max()))
    corners = scale * np.vstack([-np.ones(d), 3.0 * np.eye(d) - 1.0])
    verts = np.vstack([vertices, corners])
    elems = np.arange(n, n + d + 1)[None, :]
    try:
        SimplicialMesh.from_arrays(d, verts, elems, np.ones(n + d + 1, dtype=bool))
    except MeshError as exc:
        return str(exc)
    return None


def test_duplicate_check_matches_kdtree_oracle():
    # the sweep must reject exactly where cKDTree.query_pairs finds a pair
    # within DUPLICATE_TOL, and name one of those pairs
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(20261018)
    n_reject = n_pass = 0
    for d in (2, 3):
        for scale in (1e-3, 1.0, 1e4):
            for grid in (False, True):
                if grid:
                    # distinct cells of a coarse grid: coordinates tie often
                    cells = rng.choice(40 ** d, size=300, replace=False)
                    pts = np.column_stack(np.unravel_index(cells, (40,) * d)) / 40.0
                else:
                    pts = rng.random((300, d))
                pts = scale * (pts - 0.5)
                for factor in (None, 0.0, 0.3, 0.99, 1.01, 3.0):
                    v = pts.copy()
                    if factor is not None:
                        src = rng.integers(len(v), size=3)
                        step = rng.standard_normal((3, d))
                        step /= np.linalg.norm(step, axis=1, keepdims=True)
                        v = np.vstack([v, v[src] + factor * DUPLICATE_TOL * step])
                        v = v[rng.permutation(len(v))]
                    pairs = cKDTree(v).query_pairs(DUPLICATE_TOL)
                    msg = _duplicate_verdict(v)
                    assert (msg is not None) == bool(pairs), (d, scale, grid, factor)
                    if msg is None:
                        n_pass += 1
                        continue
                    n_reject += 1
                    words = msg.split()
                    assert words[0] == "vertices" and words[4] == "coincide", msg
                    assert (int(words[1]), int(words[3])) in pairs, msg
    assert n_reject > 0 and n_pass > 0


def test_duplicate_check_finds_pairs_straddled_in_projection():
    # a pair 0.99 tol apart along the sweep direction with k vertices between
    # them in projection order, 2, 4, ... tol off to the side: lag k + 1
    for d in (2, 3):
        u = np.sqrt(np.arange(1.0, d + 1.0))
        u /= np.linalg.norm(u)
        side = np.linalg.svd(u[None, :])[2][1]
        base = np.full(d, 0.25)
        for k in (1, 4):
            mid = [base + (j + 1) / (k + 2) * 0.99 * DUPLICATE_TOL * u
                   + 2.0 * (j + 1) * DUPLICATE_TOL * side for j in range(k)]
            v = np.vstack([base, *mid, base + 0.99 * DUPLICATE_TOL * u])
            assert _duplicate_verdict(v) == f"vertices 0 and {k + 1} coincide within {DUPLICATE_TOL}"
            assert _duplicate_verdict(v[1:]) is None


def test_row_runs_match_np_unique():
    from eigenfem.mesh import _row_runs

    meshes = [generate_structured("mesh45", 7), generate_structured("mesh135", 6)]
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.4, 0.6]])
    meshes.append(SimplicialMesh.from_arrays(
        2, v, [[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]], [1, 1, 1, 1, 0]))
    for m in meshes:
        for width in (2, 3):
            local = np.array([(0, 1), (0, 2), (1, 2)]) if width == 2 else np.arange(3)[None]
            rows = np.sort(m.elements, axis=1)[:, local].reshape(-1, width)
            order, starts = _row_runs(rows)
            want, index, counts = np.unique(rows, axis=0, return_index=True,
                                            return_counts=True)
            np.testing.assert_array_equal(rows[order[starts[:-1]]], want)
            np.testing.assert_array_equal(order[starts[:-1]], index)
            np.testing.assert_array_equal(np.diff(starts), counts)
        e = mesh_edges(m)
        pairs = np.sort(m.elements[:, [[0, 1], [0, 2], [1, 2]]], axis=-1).reshape(-1, 2)
        want, counts = np.unique(pairs, axis=0, return_counts=True)
        np.testing.assert_array_equal(e.vertices, want)
        np.testing.assert_array_equal(np.diff(e.offsets), counts)
    order, starts = _row_runs(np.zeros((0, 2), dtype=np.int64))
    assert order.size == 0 and starts.tolist() == [0]


@pytest.mark.parametrize("case", ["mesh45", "mesh135", "jittered", "kuhn"])
def test_edge_table_matches_three_key_lexsort(case):
    # one stable argsort of v0 * n_vertices + v1 orders the edges as a
    # lexsort by (v0, v1, element id) does
    m = {"mesh45": lambda: generate_structured("mesh45", 9),
         "mesh135": lambda: generate_structured("mesh135", 8),
         "jittered": lambda: jittered_triangle_mesh(101, 17),
         "kuhn": lambda: kuhn_cube(3)}[case]()
    # a 2D mesh keeps the table its boundary check built; 3D builds it on read
    assert ("edges" in vars(m)) == (m.dim == 2)
    local = list(itertools.combinations(range(m.dim + 1), 2))
    pairs = np.sort(m.elements[:, local], axis=-1).reshape(-1, 2)
    elem = np.repeat(np.arange(m.n_elements), len(local))
    order = np.lexsort((elem, pairs[:, 1], pairs[:, 0]))
    s = pairs[order]
    starts = np.append(np.flatnonzero(np.r_[True, np.any(s[1:] != s[:-1], axis=1)]), len(s))
    e = mesh_edges(m)
    assert e.vertices.tobytes() == s[starts[:-1]].tobytes()
    assert e.offsets.tobytes() == starts.tobytes()
    assert e.elements.tobytes() == elem[order].tobytes()


def test_orientation_verdicts_match_lapack_determinant():
    # the closed-form 2 x 2 determinant flips and rejects what np.linalg.det does
    rng = np.random.default_rng(5)
    n = 2000
    verts = rng.uniform(-1.0, 1.0, (3 * n, 2))
    elems = np.arange(3 * n).reshape(n, 3)
    X = verts[elems]
    det = np.linalg.det(np.swapaxes(X[:, 1:] - X[:, :1], 1, 2))
    m = SimplicialMesh.from_arrays(2, verts, elems, np.ones(3 * n, dtype=bool))
    want = elems.copy()
    want[det < 0, 1:] = want[det < 0, 2:0:-1]
    assert np.array_equal(m.elements, want)
    # nearly collinear: degenerate below DEGENERATE_REL_TOL of the edge lengths
    for offset, degenerate in ((1e-16, True), (1e-12, False)):
        v = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5 + offset]])
        if degenerate:
            with pytest.raises(MeshError, match="degenerate"):
                SimplicialMesh.from_arrays(2, v, [[0, 1, 2]], np.ones(3, dtype=bool))
        else:
            SimplicialMesh.from_arrays(2, v, [[0, 1, 2]], np.ones(3, dtype=bool))


def test_facet_shared_by_three_triangles_named():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.6, 2.0]])
    with pytest.raises(MeshError, match=r"facet \(0, 1\) shared by 3 elements"):
        SimplicialMesh.from_arrays(2, v, [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
                                   np.ones(5, dtype=bool))


def test_from_arrays_rejects_degenerate_element():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    elems = np.array([[0, 1, 2]])
    with pytest.raises(MeshError):
        SimplicialMesh.from_arrays(2, verts, elems, np.ones(3, dtype=bool))


def test_from_arrays_rejects_bad_index():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        SimplicialMesh.from_arrays(2, verts, np.array([[0, 1, 5]]),
                                   np.ones(3, dtype=bool))


def test_from_arrays_rejects_unflagged_hull_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2]])
    bnd = np.array([True, True, False])  # vertex 2 is on the hull
    with pytest.raises(MeshError):
        SimplicialMesh.from_arrays(2, verts, elems, bnd)


def test_mesh_arrays_are_readonly():
    m = generate_structured("mesh45", 3)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 42.0


def test_mesh_spacing():
    m = generate_structured("mesh45", 5)
    # longest edge is the cell diagonal
    assert abs(mesh_spacing(m) - np.sqrt(2.0) / 4.0) <= 1e-14


def test_triangle_roundtrip(tmp_path):
    m = generate_structured("mesh45", 4)
    node_text, ele_text = export_triangle(m)
    node = tmp_path / "m.node"
    ele = tmp_path / "m.ele"
    node.write_text(node_text)
    ele.write_text(ele_text)
    m2 = load_triangle(str(node), str(ele))
    assert np.allclose(m.vertices, m2.vertices)
    assert np.array_equal(np.sort(m.elements, axis=1),
                          np.sort(m2.elements, axis=1))
    assert np.array_equal(m.boundary, m2.boundary)


def test_import_mesh_requires_markers():
    node_text = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"
    ele_text = "2 3 0\n1 1 2 3\n2 1 3 4\n"
    with pytest.raises(MeshError):
        import_mesh(node_text, ele_text)


def test_import_mesh_zero_based():
    node_text = ("4 2 0 1\n"
                 "0 0.0 0.0 1\n1 1.0 0.0 1\n2 1.0 1.0 1\n3 0.0 1.0 1\n")
    ele_text = "2 3 0\n0 0 1 2\n1 0 2 3\n"
    m = import_mesh(node_text, ele_text)
    assert m.n_vertices == 4 and m.n_elements == 2
    assert m.boundary.all()


def _jittered_triangle_text(seed: int, J: int = 33):
    """1-based .node/.ele text of a J x J grid with jittered interior
    vertices and a random diagonal in each cell, coordinates in repr."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, J)
    X, Y = np.meshgrid(t, t)
    xy = np.column_stack([X.ravel(), Y.ravel()])
    ii, jj = np.meshgrid(np.arange(J), np.arange(J))
    boundary = ((ii == 0) | (ii == J - 1) | (jj == 0) | (jj == J - 1)).ravel()
    shift = rng.uniform(-0.2 / (J - 1), 0.2 / (J - 1), size=xy.shape)
    xy = xy + np.where(boundary[:, None], 0.0, shift)
    a = (np.arange(J - 1)[:, None] * J + np.arange(J - 1)).ravel()
    b, c, d = a + 1, a + J + 1, a + J
    flip = rng.random(a.size) < 0.5
    tris = np.concatenate([np.where(flip[:, None], np.column_stack([a, b, d]),
                                    np.column_stack([a, b, c])),
                           np.where(flip[:, None], np.column_stack([b, c, d]),
                                    np.column_stack([a, c, d]))])
    node = [f"{len(xy)} 2 0 1"] + [f"{i + 1} {x!r} {y!r} {int(f)}" for i, ((x, y), f)
                                   in enumerate(zip(xy.tolist(), boundary))]
    ele = [f"{len(tris)} 3 0"] + [f"{k + 1} {p + 1} {q + 1} {r + 1}"
                                  for k, (p, q, r) in enumerate(tris.tolist())]
    return "\n".join(node) + "\n", "\n".join(ele) + "\n"


def _assert_parse_matches_loop(node_text, ele_text):
    vertices, boundary, base = parse_node(node_text)
    want_v, want_b, want_base = loop_parse_node(node_text)
    assert base == want_base
    assert vertices.dtype == want_v.dtype and vertices.shape == want_v.shape
    assert np.array_equal(vertices.view(np.int64), want_v.view(np.int64))
    assert np.array_equal(boundary, want_b)
    elements = parse_ele(ele_text, len(vertices), base)
    want_e = loop_parse_ele(ele_text, base)
    assert elements.dtype == want_e.dtype
    assert np.array_equal(elements, want_e)
    return vertices, boundary, elements


def test_parse_bit_identical_to_loop_parser_jittered():
    node_text, ele_text = _jittered_triangle_text(seed=7)
    vertices, _, elements = _assert_parse_matches_loop(node_text, ele_text)
    assert vertices.shape == (33 * 33, 2) and elements.shape == (2 * 32 * 32, 3)
    import_mesh(node_text, ele_text)   # and it is a valid mesh


def test_parse_bit_identical_with_attributes_and_comments():
    # two vertex attributes, one element attribute, out-of-order ids,
    # comment lines, trailing comments, blank lines and odd spacing
    node_text = ("# unit square, centre vertex\n"
                 "5 2 2 1   # header\n"
                 "\n"
                 "3\t1.0 1.0  7.5 -1 1\n"
                 "1 0.0 0.0 0 0 1  # corner\n"
                 "   2 1.0 0.0 1e-3 2 1\n"
                 "5 0.30000000000000004 0.5 3 3 0\n"
                 "4 0.0 1.0 0.1 0.2 1\n"
                 "# end\n")
    ele_text = ("4 3 1\n"
                "1 1 2 5 10\n"
                "# comment between elements\n"
                "2 2 3 5 10\n"
                "3 3 4 5 11  # trailing\n"
                "4 4 1 5 11\n")
    vertices, boundary, _ = _assert_parse_matches_loop(node_text, ele_text)
    assert vertices[2].tolist() == [1.0, 1.0]
    assert boundary.tolist() == [True, True, True, True, False]


def test_parse_bit_identical_zero_based():
    node_text = ("4 2 0 1\n"
                 "0 0.0 0.0 1\n1 1.0 0.0 1\n2 1.0 1.0 1\n3 0.0 1.0 1\n")
    ele_text = "2 3 0\n0 0 1 2\n1 0 2 3\n"
    _, _, elements = _assert_parse_matches_loop(node_text, ele_text)
    assert elements.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_parse_field_count_messages():
    with pytest.raises(MeshError, match=r"^\.node line 3: expected 4 fields, got 5$"):
        parse_node("2 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1 9\n")
    with pytest.raises(MeshError, match=r"^\.ele line 2: expected 4 fields, got 3$"):
        parse_ele("1 3 0\n1 1 2\n", 3, 1)


_NODE = ("5 2 1 1\n"
         "1 0.0 0.0 7 1\n2 1.0 0.0 7 1\n3 1.0 1.0 7 1\n4 0.0 1.0 7 1\n"
         "5 0.30000000000000004 0.5 7 0\n")
_ELE = "4 3 1\n1 1 2 5 0\n2 2 3 5 0\n3 3 4 5 0\n4 4 1 5 0\n"


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "\r"),
    lambda t: t.replace(" ", "\t"),
    lambda t: t.replace(" 1\n", " 1#c\n").replace(" 0\n", " 0# c\n"),
    lambda t: "# made by hand\n\n  # indented comment\n" + t,
    lambda t: t + "\n\n  \t\n# end\n",
    lambda t: t.replace(" 7 ", " \xa0attr\u3000"),
], ids=["crlf", "cr", "tabs", "glued-comment", "comments-before-header",
        "trailing-blank-lines", "unicode-spaces"])
def test_parse_edge_cases_bit_identical_to_loop_parser(edit):
    vertices, boundary, elements = _assert_parse_matches_loop(edit(_NODE), edit(_ELE))
    assert vertices[4].tolist() == [0.30000000000000004, 0.5]
    assert boundary.tolist() == [True, True, True, True, False]
    assert elements.tolist() == [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]


def test_ignored_columns_take_any_token():
    # .ele ids and attributes and .node attributes are never converted
    node = _NODE.replace(" 7 ", " é→x ")
    ele = "4 3 2\n" + "".join(f"{tag} {a} {b} 5 none {tag * 3}\n" for tag, a, b in
                             (("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 4, 1)))
    _assert_parse_matches_loop(node, ele)


def _outcome(parse, *args):
    """What parse returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome[0], type)


def _with_spelling(field: str, spelling: str) -> tuple[str, str]:
    """_NODE and _ELE with one id, marker, coordinate or element vertex
    spelled differently."""
    node, ele = _NODE, _ELE
    if field == "id":
        node = node.replace("\n1 0.0", f"\n{spelling} 0.0")
    elif field == "marker":
        node = node.replace(" 7 0\n", f" 7 {spelling}\n")
    elif field == "coordinate":
        node = node.replace(" 0.5 ", f" {spelling} ")
    else:
        ele = ele.replace("\n2 2 3 5", f"\n2 2 3 {spelling}")
    return node, ele


@pytest.mark.parametrize("spelling", ["+1", "01", "1.0", "1e3", "0x1", "0_1", "\u0661",
                                      "99999999999999999999", "nan"])
@pytest.mark.parametrize("field", ["id", "marker", "coordinate", "element"])
def test_spellings_read_as_int_and_float_read_them(field, spelling):
    # ids, markers and element vertices are read as int() reads them and
    # coordinates as float() does: accepted with the same values, or
    # rejected with the same exception, as by the loop parser
    node, ele = _with_spelling(field, spelling)
    want, got = _outcome(loop_parse_node, node), _outcome(parse_node, node)
    if _raised(want):
        assert got == want
        return
    assert not _raised(got), got
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1]) and got[2] == want[2]
    want_e = _outcome(loop_parse_ele, ele, want[2])
    got_e = _outcome(parse_ele, ele, len(want[0]), want[2])
    if _raised(want_e):
        assert got_e == want_e
    elif _raised(got_e):   # the loop parser does not range-check
        assert got_e == (MeshError, ".ele references a vertex outside the .node file")
        assert want_e.max() >= len(want[0])
    else:
        assert np.array_equal(got_e, want_e)


@pytest.mark.parametrize("field, spelling", [("id", "1.0"), ("marker", "1e3"),
                                             ("element", "2.0")])
def test_rejected_integer_spelling_exits_one(tmp_path, capsys, field, spelling):
    from eigenfem.cli import main

    node, ele = _with_spelling(field, spelling)
    (tmp_path / "m.node").write_text(node)
    (tmp_path / "m.ele").write_text(ele)
    code = main(["analyze", "--problem", "laplace", "--mesh", "import",
                 "--node", str(tmp_path / "m.node"), "--ele", str(tmp_path / "m.ele"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: invalid literal for int() with base 10: '{spelling}'\n")


@pytest.mark.parametrize("node, ele, message", [
    ("3 2 0 1\n# no data\n\n", None, ".node header promises 3 vertices, found 0"),
    ("3 2 0 1\n1 0 0 1\n2 1 0 1\n", None, ".node header promises 3 vertices, found 2"),
    (None, "2 3 0\n1 1 2 3\n2 1 3 4\n3 2 3 4\n", ".ele header promises 2 elements, found 3"),
    (None, "2 3 0\n1 1 2 3 9\n2 1 3\n", ".ele line 2: expected 4 fields, got 5"),
])
def test_line_count_and_field_messages(node, ele, message):
    # a wrong line count is reported like a wrong field count, by the line loop
    with pytest.raises(MeshError, match=f"^{message}$"):
        if node is not None:
            parse_node(node)
        else:
            parse_ele(ele, 4, 1)


def test_bogus_attribute_count_never_reaches_the_reader(monkeypatch):
    # numpy's reader would size its records by the header's fields, about
    # 23 bytes a field; no line is long enough to hold a billion of them
    def unreachable(*args, **kwargs):
        raise AssertionError("reader called")

    monkeypatch.setattr(np, "loadtxt", unreachable)
    with pytest.raises(MeshError, match=r"^\.node line 2: expected 1000000004 fields, got 4$"):
        parse_node("4 2 1000000000 1\n1 0 0 1\n2 1 0 1\n3 1 1 1\n4 0 1 1\n")
    with pytest.raises(MeshError, match=r"^\.ele line 2: expected 1000000004 fields, got 4$"):
        parse_ele("1 3 1000000000\n1 1 2 3\n", 3, 1)


def test_well_formed_files_skip_the_line_loop(monkeypatch):
    # the per-line reader runs only after numpy's reader has rejected a file
    import eigenfem.mesh

    def unreachable(*args, **kwargs):
        raise AssertionError("line loop called")

    monkeypatch.setattr(eigenfem.mesh, "_columns", unreachable)
    node_text, ele_text = _jittered_triangle_text(seed=3, J=9)
    for text in (node_text, node_text.replace("\n", "\r\n"), _NODE):
        parse_node(text)
    for text in (ele_text, _ELE):
        parse_ele(text, 81, 1)
