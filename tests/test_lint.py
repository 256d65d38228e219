"""No correctness check lives in an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mapdelta"


def test_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
