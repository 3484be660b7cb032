import ast
from pathlib import Path

import nmpkit

PACKAGE = Path(nmpkit.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # Internal checks must still run under python -O, which strips every
    # assert; so the package raises instead. A pytest -O run could not
    # show this, as it strips the tests' own asserts too.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
