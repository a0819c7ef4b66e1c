"""Source hygiene of src/slimrnn, read with ast: no unused import, no orphaned name, attribute or parameter.

No module of src/slimrnn, tests/ or bench/ may import a name it never
reads, and every data file in tests/fixtures/ needs a writer in
tests/fixtures/freeze.py that gives back its bytes.

A deletion that leaves an import or a module-level ``_private`` helper or
constant behind with no reader fails here, and so does a module-level
public function, class or constant that only tests read: every one needs
a reader in src/ or in the benchmark, perfbench/ (its own tests aside).
So does an attribute that a class sets, on ``self`` or as a class-level
annotation, and that only tests read; calling ``x.name(...)`` calls a
method, so it reads no data attribute ``name``.

A defaulted parameter of a module-level public function needs a caller
there too that sets it: by keyword, by position, through a ``*`` or ``**``
spread (a ``**`` of a module-level dict literal sets that dict's keys
alone), or by handing the function on as a value, which may set any of
its parameters. Calls and values are matched by the function's name.

No module of src/slimrnn may take a ``_private`` name from another module
of the package, by importing it or by reading it as an attribute of a
name imported from the package: what a module keeps private has readers
in that module alone (and in tests/ and bench/, which are exempt).
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


def is_private(name: str) -> bool:
    """Whether ``name`` starts with one underscore."""
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level definitions whose names start with one underscore."""
    return [n for n in definitions(tree) if is_private(n)]


def private_imports(tree: ast.Module) -> list[str]:
    """The ``_private`` names that ``tree`` imports from the package slimrnn, and ``name._attr`` of each one
    it reads as an attribute of a name imported from there."""
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "slimrnn")
    ]
    bound = {a.asname or a.name for node in imports for a in node.names}
    taken = [a.name for node in imports for a in node.names]
    taken += [
        f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in bound
    ]
    return [name for name in taken if is_private(name.split(".")[-1])]


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


def called(tree: ast.Module) -> set[int]:
    """The ids of the nodes that ``tree``'s calls call."""
    return {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def attributes_read(trees: list[ast.Module]) -> set[str]:
    """Every attribute name that an expression of ``trees`` reads, augmented assignments included, calls not."""
    out = set()
    for tree in trees:
        calls = called(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in calls:
                out.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                out.add(node.target.attr)
    return out


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, its position or None when keyword-only) of each defaulted parameter of a
    module-level public function."""
    out = []
    for fn in tree.body:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_"):
            a = fn.args
            positional = [*a.posonlyargs, *a.args]
            out += [(fn.name, p.arg, i) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
            out += [(fn.name, p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return out


ANY = "*"  # what a spread or a function handed on as a value may set: any parameter


def named(node: ast.AST) -> str | None:
    """The name a Name node reads or an Attribute node takes, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def arguments_given(trees: list[ast.Module]) -> dict[str, set]:
    """Per called name across ``trees``, what its calls set: keyword names, positions and ANY.

    A ``**`` of a name bound at module level to a dict literal with string
    keys (``**DIMS`` or ``**module.DIMS``) gives those keys; any other
    ``*`` or ``**`` gives ANY, and so does a name read other than as a call.
    """
    literals = {
        target.id: [k.value for k in node.value.keys]
        for tree in trees for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.value.keys)
        for target in node.targets if isinstance(target, ast.Name)
    }
    given: dict[str, set] = {}
    for tree in trees:
        calls = called(tree)
        for node in ast.walk(tree):
            if named(node) is not None and isinstance(node.ctx, ast.Load) and id(node) not in calls:
                given.setdefault(named(node), set()).add(ANY)
            elif isinstance(node, ast.Call):
                out = given.setdefault(named(node.func), set())
                out.update(range(len(node.args)))
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    out.add(ANY)
                for kw in node.keywords:
                    out.update([kw.arg] if kw.arg is not None else literals.get(named(kw.value), [ANY]))
    return given


def unset_parameters(tree: ast.Module, given: dict[str, set]) -> list[str]:
    """``function(parameter)`` of each defaulted parameter of ``tree`` that nothing in ``given`` sets."""
    return [
        f"{fn}({param})" for fn, param, position in defaulted_parameters(tree)
        if not given.get(fn, set()) & {ANY, param, position}
    ]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_takes_a_private_name_from_another(path):
    assert private_imports(parse(path)) == []


def test_every_public_name_has_a_reader_outside_tests():
    read = references([parse(path) for path in readers_outside_tests()])
    orphans = [f"{path.stem}.{name}" for path in MODULES for name in public_definitions(parse(path)) if name not in read]
    assert orphans == []


def test_every_attribute_has_a_reader_outside_tests():
    read = attributes_read([parse(path) for path in readers_outside_tests()])
    orphans = [f"{path.stem}.{name}" for path in MODULES for name in attributes_set(parse(path)) if name.split(".")[1] not in read]
    assert orphans == []


def test_every_defaulted_parameter_has_a_caller_outside_tests_that_sets_it():
    given = arguments_given([parse(path) for path in readers_outside_tests()])
    orphans = [f"{path.stem}.{name}" for path in MODULES for name in unset_parameters(parse(path), given)]
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
    # a data attribute named like a method that is called elsewhere is still an orphan
    tree = ast.parse("class Trace:\n    def __init__(self):\n        self.arrays = {}\n\n"
                     "class Params:\n    def arrays(self):\n        return {}\n\n"
                     "def use(p):\n    return p.arrays()\n")
    read = attributes_read([tree])
    assert [n for n in attributes_set(tree) if n.split(".")[1] not in read] == ["Trace.arrays"]


def test_private_import_check_flags_a_planted_import_and_attribute():
    tree = ast.parse("from __future__ import annotations\nfrom .bptt import Trace, _carved\nfrom . import cells as c\n"
                     "from slimrnn.rng import _EPOCH_MASK\nfrom numpy import _core\n\n"
                     "def f(t: Trace):\n    return t._buf, c._lookup, c.GATES, c.__name__, Trace._fields\n")
    assert private_imports(tree) == ["_carved", "_EPOCH_MASK", "c._lookup", "Trace._fields"]


def test_parameter_check_flags_a_test_only_keyword_and_accepts_every_way_a_caller_sets_one():
    module = ast.parse("def fit(data, rate=0.1, steps=10, *, width=3, seed=0):\n    pass\n\n"
                       "def report(text, out=None):\n    pass\n\n"
                       "def spare(x, y=1):\n    pass\n")
    callers = ast.parse("SHAPE = {'width': 4}\n"
                        "lib.fit(x, 0.2)\n"  # rate by position
                        "fit(x, steps=3)\n"  # steps by keyword
                        "fit(x, **SHAPE)\n"  # width through a module-level dict literal
                        "run(lib.report)\n"  # report handed on as a value
                        "spare(*pair)\n")  # spare's y through a * spread
    test = ast.parse("fit(x, seed=1)\n")
    assert unset_parameters(module, arguments_given([callers])) == ["fit(seed)"]
    assert unset_parameters(module, arguments_given([callers, test])) == []
    assert unset_parameters(module, arguments_given([ast.parse("fit(x, **options)\n")])) == [
        "report(out)", "spare(y)"]  # a ** of anything else may set any parameter


def test_every_fixture_has_a_writer_that_keeps_its_bytes():
    # each format writes back the committed file from what load() read of it
    for name, (_, text) in freeze.WRITERS.items():
        assert text(freeze.load(name)) == (freeze.HERE / name).read_text(), name
    data = sorted(p.name for p in freeze.HERE.iterdir() if p.is_file() and p.suffix != ".py")
    assert data == sorted(freeze.WRITERS)
