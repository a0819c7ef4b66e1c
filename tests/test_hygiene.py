"""Source hygiene of src/slimrnn, read with ast: no unused import, no orphaned name or attribute.

No module of src/slimrnn, tests/ or bench/ may import a name it never
reads, and every data file in tests/fixtures/ but batch_grads.npz needs a
writer in tests/fixtures/freeze.py that gives back its bytes.

A deletion that leaves an import or a module-level ``_private`` helper or
constant behind with no reader fails here, and so does a module-level
public function, class or constant that only tests read: every one needs
a reader in src/ or in the benchmark, perfbench/ (its own tests aside).
So does an attribute that a class sets, on ``self`` or as a class-level
annotation, and that only tests read.
"""

import ast
from pathlib import Path

import pytest

from .fixtures import freeze

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted((SRC / "slimrnn").glob("*.py"))
IMPORTERS = [*MODULES, *sorted((ROOT / "tests").rglob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]


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


def definitions(tree: ast.Module) -> list[str]:
    """Names of the module-level functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level definitions whose names start with one underscore."""
    return [n for n in definitions(tree) if n.startswith("_") and not n.startswith("__")]


def public_definitions(tree: ast.Module) -> list[str]:
    """Module-level definitions whose names do not start with an underscore."""
    return [n for n in definitions(tree) if not n.startswith("_")]


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


def attributes_set(tree: ast.Module) -> list[str]:
    """``Class.name`` of every attribute a class sets on ``self`` or annotates in its body."""
    names = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        names += [f"{cls.name}.{n.target.id}" for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        names += [
            f"{cls.name}.{n.attr}" for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name) and n.value.id == "self"
        ]
    return list(dict.fromkeys(names))


def attributes_read(trees: list[ast.Module]) -> set[str]:
    """Every attribute name that an expression of ``trees`` reads, augmented assignments included."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                out.add(node.target.attr)
    return out


def readers_outside_tests() -> list[Path]:
    return sorted([*SRC.rglob("*.py"), *(p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts)])


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name if p in MODULES else p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_every_private_name_has_a_reader():
    trees = [parse(path) for path in sorted(SRC.rglob("*.py"))]
    read = references(trees)
    orphans = [name for tree in trees for name in private_definitions(tree) if name not in read]
    assert orphans == []


def test_every_public_name_has_a_reader_outside_tests():
    read = references([parse(path) for path in readers_outside_tests()])
    orphans = [f"{path.stem}.{name}" for path in MODULES for name in public_definitions(parse(path)) if name not in read]
    assert orphans == []


def test_every_attribute_has_a_reader_outside_tests():
    read = attributes_read([parse(path) for path in readers_outside_tests()])
    orphans = [f"{path.stem}.{name}" for path in MODULES for name in attributes_set(parse(path)) if name.split(".")[1] not in read]
    assert orphans == []


def test_checks_flag_a_planted_orphan():
    tree = ast.parse("import os\nfrom json import dumps\n_LIMIT = 3\nTAG = 4\n\nclass Spare:\n    pass\n\n"
                     "def _helper():\n    return dumps\n")
    assert unused_imports(tree) == ["os"]
    assert [n for n in private_definitions(tree) if n not in references([tree])] == ["_LIMIT", "_helper"]
    assert [n for n in public_definitions(tree) if n not in references([tree])] == ["TAG", "Spare"]
    tree = ast.parse("class Kept:\n    size: int\n    spare: int\n\n    def __init__(self):\n        self.count = 0\n"
                     "        self.stale = self.count\n        self.total = 0\n\n    def add(self, k):\n"
                     "        self.total += k\n        return self.size\n")
    read = attributes_read([tree])
    assert [n for n in attributes_set(tree) if n.split(".")[1] not in read] == ["Kept.spare", "Kept.stale"]


def test_every_fixture_has_a_writer_that_keeps_its_bytes():
    # each format writes back the committed file from what load() read of it;
    # batch_grads.npz alone has no writer (see tests/fixtures/freeze.py)
    for name, (_, text) in freeze.WRITERS.items():
        assert text(freeze.load(name)) == (freeze.HERE / name).read_text(), name
    data = sorted(p.name for p in freeze.HERE.iterdir() if p.is_file() and p.suffix != ".py")
    assert data == sorted([*freeze.WRITERS, "batch_grads.npz"])
