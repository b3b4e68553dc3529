"""Static checks over the library's source files."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "longzeta"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently disappear; the library raises instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
