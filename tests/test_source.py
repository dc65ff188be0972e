"""Library invariants raise explicit errors: `python -O` strips `assert`
statements, so none may appear in the package source."""

import ast
from pathlib import Path

import pfes


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(Path(pfes.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
