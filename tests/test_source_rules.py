"""Rules the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rigdens"


def test_no_assert_statements_in_src():
    """A check in the package must not vanish under python -O, so none may
    be an assert statement."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
