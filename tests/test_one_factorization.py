"""Sparse LU goes through sparse_linalg alone, and one run factors A at most once."""

import ast
import json
import pathlib
import sys

import pytest
import scipy.sparse.linalg

from eigenfem import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eigenfem"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "sparse_linalg.py")


def splu_uses(source: str) -> list[int]:
    """Line numbers of every import of splu and every use of the name or attribute splu."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "splu" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "splu":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "splu":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_module_leaves_splu_to_sparse_linalg(path):
    assert splu_uses(path.read_text()) == [], path.name


def test_splu_uses_found():
    assert OTHERS
    assert splu_uses((SRC / "sparse_linalg.py").read_text())
    assert splu_uses("from scipy.sparse.linalg import splu as f\n") == [1]
    assert splu_uses("import scipy.sparse.linalg as sla\nsla.splu(A)\n") == [2]
    assert splu_uses("x = 'splu(A)'\nsplu_calls = 0\n") == []


@pytest.fixture
def splu_calls(monkeypatch):
    # every binding of scipy's splu that the package can reach is counted
    calls = []
    real = scipy.sparse.linalg.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    modules = [scipy.sparse.linalg,
               *(m for name, m in sys.modules.items() if name.startswith("eigenfem."))]
    for module in modules:
        if getattr(module, "splu", None) is real:
            monkeypatch.setattr(module, "splu", counting)
    return calls


def test_solve_factors_once(splu_calls, tmp_path):
    # J=31 makes A a Z-matrix, so the certificate's semipositivity test and
    # the eigensolver both need the LU; they share one
    code = cli.main(["solve", "--problem", "ex5_2", "--mesh", "mesh45", "--J", "31",
                     "--k", "6", "--out", str(tmp_path)])
    assert code == 0
    assert len(splu_calls) == 1
    props = json.loads((tmp_path / "properties.json").read_text())
    assert props["certificate"]["certified_irreducible_m_matrix"] is True


@pytest.mark.parametrize("problem, mesh, factorizations", [
    ("laplace", "mesh45", 1),    # Z-matrix: one LU for the semipositivity test
    ("ex5_1", "mesh135", 0),     # not a Z-matrix: nothing to factor
])
def test_analyze_factors_z_matrices_only(splu_calls, tmp_path, problem, mesh, factorizations):
    cli.main(["analyze", "--problem", problem, "--mesh", mesh, "--J", "9",
              "--out", str(tmp_path)])
    assert len(splu_calls) == factorizations
    cert = json.loads((tmp_path / "report.json").read_text())["certificate"]
    assert cert["semipositive"] is (True if factorizations else None)
