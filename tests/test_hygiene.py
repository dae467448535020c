"""Source hygiene: every module-level import in the library is used."""

from __future__ import annotations

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "henonlab")
# __init__ imports names to re-export them
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name bound at module level -> line of its import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_module_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"unused imports in {os.path.basename(path)}: {unused}"
