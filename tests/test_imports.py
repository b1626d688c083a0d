"""Every module-level import and private name in the package modules is used.

The package's ``__init__.py`` re-exports names and is skipped by the import
check; in every other module a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in the module, so a refactor
cannot leave a dead import behind.  ``from __future__`` imports are
compiler directives and bind nothing that is read.

A module-level name with one leading underscore (function, class or
assigned constant) in any package module must be read by package code
outside its own definition: in its module by name, elsewhere through
``from .module import name`` or an attribute ``module.name``.  A private
helper that only the tests call belongs in the tests.

The same rule holds for the public names in ``permutalab.__all__``, with
the re-exports of ``__init__.py`` not counted as reads: each is read by
package code outside its own definition, or named in a ``bench/*.py``
file, whose workloads call the package as its users do.

``permutalab.__all__`` names exactly the public names that ``__init__.py``
imports, and each resolves, so a removal cannot leave a stale entry that
only ``from permutalab import *`` would trip on.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import permutalab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permutalab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = PACKAGE.parent.parent / "bench"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_guard_sees_dead_and_live_imports():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module, wanted):
    """``(name, node)`` of the top-level defs, classes and assignments of ``wanted`` names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if wanted(name):
                yield name, node


def unreferenced_names(sources: dict[str, str], wanted=_is_private) -> list[str]:
    """``module.name`` of each ``wanted`` module-level name no package code reads.

    ``sources`` maps module names to their source text; ``wanted`` picks
    the names to check, by default the private ones.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    dead = []
    for mod, tree in trees.items():
        elsewhere = [n for other, t in trees.items() if other != mod for n in ast.walk(t)]
        for name, definition in _definitions(tree, wanted):
            own = {id(n) for n in ast.walk(definition)}
            read_here = any(
                isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
                for n in ast.walk(tree)
                if id(n) not in own
            )
            read_elsewhere = any(
                (isinstance(n, ast.Attribute) and n.attr == name)
                or (isinstance(n, ast.ImportFrom) and n.module == mod
                    and name in {a.name for a in n.names})
                for n in elsewhere
            )
            if not (read_here or read_elsewhere):
                dead.append(f"{mod}.{name}")
    return dead


def test_private_guard_sees_dead_and_live_names():
    sources = {
        "a": "def _fact(n):\n    return 1 if n < 2 else n * _fact(n - 1)\n"
             "_LIMIT = 3\n_SEEN: int = 0\nclass _Box:\n    pass\n"
             "def public():\n    return _LIMIT\n",
        "b": "from .a import _Box\nfrom . import a\nx = a._SEEN\n",
    }
    assert unreferenced_names(sources) == ["a._fact"]
    assert unreferenced_names(sources, {"public", "_Box"}.__contains__) == ["a.public"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_names(sources) == []


def imported_public_names(source: str) -> set[str]:
    """Names without a leading underscore bound by the module's top-level imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return {name for name in names if not name.startswith("_")}


def test_all_guard_reads_imported_names():
    source = "from __future__ import annotations\nfrom .a import B, c as d, _e\nimport f.g\n"
    assert imported_public_names(source) == {"B", "d", "f"}


def test_all_names_the_imported_public_names():
    all_names = permutalab.__all__
    assert len(all_names) == len(set(all_names))
    assert set(all_names) == imported_public_names((PACKAGE / "__init__.py").read_text())
    for name in all_names:
        assert getattr(permutalab, name) is not None


# model_to_json writes the model JSON format that model_from_json reads; the
# pair is the format's interface, so the writer stays though only the tests
# call it
UNREAD_PUBLIC_NAMES = {"model_to_json"}


def test_every_public_name_has_a_caller():
    sources = {p.stem: p.read_text() for p in MODULES}
    bench = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    unread = unreferenced_names(sources, set(permutalab.__all__).__contains__)
    names = {qualified.split(".", 1)[1] for qualified in unread}
    assert {n for n in names if not re.search(rf"\b{n}\b", bench)} == UNREAD_PUBLIC_NAMES
