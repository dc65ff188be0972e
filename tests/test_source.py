"""Source-level rules for the package, checked on its syntax trees.

Library invariants raise explicit errors: `python -O` strips `assert`
statements, so none may appear in the package source.  No module imports a
name it never uses; `__init__.py` is exempt, since its imports are the
package's exports.  Exact division by products of (1 - q^a) stays inside
`qcore`: no other module names the general `poly_exact_div`.
"""

import ast
from pathlib import Path

import pfes

SOURCES = sorted(Path(pfes.__file__).parent.rglob("*.py"))


def test_no_assert_statements_in_library():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_imports_in_library():
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, found


def test_general_division_only_in_qcore():
    found = []
    for path in SOURCES:
        if path.name == "qcore.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name == "poly_exact_div":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found
