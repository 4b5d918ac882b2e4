"""Library code does not print: only the command line writes to stdout."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eigenfem"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")


def print_calls(source: str) -> list[int]:
    """Line numbers of every call to the name print in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_does_not_print(path):
    assert print_calls(path.read_text()) == [], path.name


def test_print_calls_found():
    assert LIBRARY
    assert print_calls("def f(x):\n    print(x)\n    return x\n") == [2]
    assert print_calls("log.print(1)\nx = 'print(2)'\n") == []
