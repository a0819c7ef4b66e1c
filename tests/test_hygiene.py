"""Source hygiene of src/slimrnn, read with ast: no unused import, no orphaned private name.

A deletion that leaves an import or a module-level ``_private`` helper or
constant behind with no reader fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "slimrnn").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (``__future__`` aside) that no expression of the module reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and constants whose names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(trees: list[ast.Module]) -> set[str]:
    """Every name read, attribute taken or name imported across ``trees``."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_every_private_name_has_a_reader():
    trees = [parse(path) for path in sorted(SRC.rglob("*.py"))]
    read = references(trees)
    orphans = [name for tree in trees for name in private_definitions(tree) if name not in read]
    assert orphans == []


def test_checks_flag_a_planted_orphan():
    tree = ast.parse("import os\nfrom json import dumps\n_LIMIT = 3\n\ndef _helper():\n    return dumps\n")
    assert unused_imports(tree) == ["os"]
    assert [n for n in private_definitions(tree) if n not in references([tree])] == ["_LIMIT", "_helper"]
