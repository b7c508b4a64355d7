"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "k3lat"


def _library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in paths]


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so library invariants must be
    # explicit checks that raise.
    found = [f"{name}:{node.lineno}" for name, tree in _library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_reads_no_environment_variables():
    # The package has no settings: each result depends on the arguments alone.
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names):
                found.append(f"{name}:{node.lineno}")
    assert found == []
