"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "adjstats").glob("*.py"))


def test_no_invariant_rests_on_assert():
    """`python -O` strips `assert`, so an invariant must raise instead."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/adjstats: {', '.join(found)}"
