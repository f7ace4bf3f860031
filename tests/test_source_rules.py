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


def test_no_slack_factor_literals_in_src():
    """A float literal strictly between 1 and 2 is the shape of a
    hand-picked slack factor (1.01 c u); every rounding charge comes from
    a proof instead (intervals._gamma), so none may appear."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 1.0 < node.value < 2.0]
    assert found == []


def test_scipy_sparse_stays_unimported():
    """The package reaches scipy's sparse kernels only through _csr, which
    loads the compiled extension alone: no file imports scipy.sparse (its
    import costs more than numpy's), and no other file names the
    extension."""
    imports, named = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
            else:
                continue
            if any(m == "scipy.sparse" or m.startswith("scipy.sparse.")
                   for m in modules):
                imports.append(f"{path.name}:{node.lineno}")
        if "_sparsetools" in text and path.name != "_csr.py":
            named.append(path.name)
    assert imports == []
    assert named == []


def test_no_writes_into_an_object_dict():
    """A derived fact has one owner: a cached property computes it from
    the object's own data, so no file seeds one by writing into another
    object's __dict__ (a subscript store, update or setdefault)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif (isinstance(node, ast.Attribute)
                  and node.attr in ("update", "setdefault")):
                target = node.value
            else:
                continue
            if isinstance(target, ast.Attribute) and target.attr == "__dict__":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
