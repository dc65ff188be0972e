"""Source-level rules for the package, checked on its syntax trees.

Library invariants raise explicit errors: `python -O` strips `assert`
statements, so none may appear in the package source.  No module imports a
name it never uses; `__init__.py` is exempt, since its imports are the
package's exports.  Exact division by products of (1 - q^a) is
`qcore.q_divide`; the general long division `poly_exact_div` is only the
tests' reference for it, so no package module defines or names it.  Memos
are functools caches on the functions they memoize: no module binds an
empty dict at module level, except `qcore._GAUSS_CACHE`, which the
benchmark's tracer reads to count Gaussian-binomial misses.  Settings come from
arguments and flags only: no module reads `os.environ` or `os.getenv`.
numpy serves the finite-field oracle only: no module but `_kernels`
imports it, and the package loads `fq_oracle`, which loads `_kernels`, on
first use.  A QPoly is held packed and `QPoly.coeffs` decodes it on each
read, so no module outside `qcore` reads `.coeffs` except `cli.poly_json`,
which prints them.  A module's underscore-prefixed names are its own: no
module imports one from another pfes module, except `efun._require`, the
shared range check, and the `_kernels` module itself.
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
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name == "poly_exact_div":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def _is_empty_dict(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args and not node.keywords)


def test_no_module_level_dict_memos():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [getattr(target, "id", None) for target in targets]
            if (node.value is not None and _is_empty_dict(node.value)
                    and names != ["_GAUSS_CACHE"]):
                found.append(f"{path.name}:{node.lineno} {names}")
    assert not found, found


def test_no_module_reads_the_environment():
    readers = {"environ", "getenv"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in sorted(names & readers)]
    assert not found, found


def test_only_the_oracle_modules_import_numpy():
    allowed = {"_kernels.py"}
    found = []
    for path in SOURCES:
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] == "numpy"]
    assert not found, found


def test_only_qcore_and_poly_json_decode_coefficients():
    found = []
    for path in SOURCES:
        if path.name == "qcore.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (path.name == "cli.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "poly_json"):
                allowed |= {id(inner) for inner in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "coeffs"
                  and id(node) not in allowed]
    assert not found, found


def test_no_private_names_imported_across_modules():
    allowed = {("efun", "_require"), (None, "_kernels")}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")
                      and (node.module, alias.name) not in allowed]
    assert not found, found
