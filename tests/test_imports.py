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
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permutalab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _private_definitions(tree: ast.Module):
    """``(name, node)`` of the top-level defs, classes and assignments of ``_x`` names."""
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
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level name no package code reads.

    ``sources`` maps module names to their source text.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    dead = []
    for mod, tree in trees.items():
        elsewhere = [n for other, t in trees.items() if other != mod for n in ast.walk(t)]
        for name, definition in _private_definitions(tree):
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
    assert unreferenced_private_names(sources) == ["a._fact"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []
