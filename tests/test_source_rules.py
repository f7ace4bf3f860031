"""Rules the package source keeps."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rigdens"

# the package's code-only lines at the last count (_code_lines); a change
# that adds code raises it and says why in CHANGES.md
CODE_LINES_MAX = 2478
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _code_lines(path: Path) -> int:
    """Lines of path that hold a token other than a comment, excluding
    blank lines and the docstrings of the module, its classes and its
    functions (a string spanning lines counts on each of them)."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_stay_within_the_recorded_count():
    """ROADMAP's size metric, measured here rather than by hand: the
    package's code-only lines do not grow past CODE_LINES_MAX."""
    counts = {path.name: _code_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= CODE_LINES_MAX, counts


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


def test_branch_phases_reach_sine_only_in_maps_and_intervals():
    """The sine of a branch phase B pi x has one owner: maps' branch
    evaluator, over the interval sine of intervals.  No other file names
    sin or cos (math.sin, np.cos, a .sin() method, a bare imported sin),
    so no further copy of a branch formula grows elsewhere."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("maps.py", "intervals.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("sin", "cos"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []
