"""Source-level checks over the package itself."""

import ast
from pathlib import Path

import blockforcing

PACKAGE = Path(blockforcing.__file__).parent


def test_no_assert_statements():
    # assert vanishes under python -O, so checks must raise typed errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert found == []
