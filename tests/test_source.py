"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voroseg"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so library invariants must raise typed errors
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
