"""Source hygiene: every module-level import and private helper in the
library is used."""

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


def _private_definitions(tree: ast.Module) -> dict:
    """Private (single-underscore) function, class or constant defined at
    module level -> line of its definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _loaded_names(tree: ast.AST) -> set:
    """Names read anywhere in the tree, as bare names or as attributes."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used


def test_no_dead_private_helpers():
    trees = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    used = set().union(*map(_loaded_names, trees.values()))
    dead = {f"{mod}:{line} {name}"
            for mod, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in used}
    assert not dead, f"private helpers nothing in src/ uses: {sorted(dead)}"
