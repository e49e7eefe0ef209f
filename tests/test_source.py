"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qvm"


def test_no_assert_statements():
    # ``python -O`` strips asserts, and the package's invariants must hold under it
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/qvm: {', '.join(found)}"
