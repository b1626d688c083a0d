"""Every error token the package raises is named by a test.

A token is the first argument of a ``LabError(...)`` call in a package
module, when it is a string literal.  The guard asserts that each one
appears quoted (``"token"`` or ``'token'``) in some other test file, so a
token that no test asserts cannot be added or kept.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permutalab"
TESTS = ROOT / "tests"


def raised_tokens(source: str) -> set[str]:
    """String literals passed as the first argument of a ``LabError(...)`` call."""
    tokens = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "LabError"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            tokens.add(node.args[0].value)
    return tokens


def _package_tokens() -> list[str]:
    return sorted(set().union(*(raised_tokens(p.read_text()) for p in PACKAGE.glob("*.py"))))


def _test_sources() -> str:
    here = Path(__file__).resolve()
    return "\n".join(p.read_text() for p in sorted(TESTS.glob("*.py")) if p.resolve() != here)


def test_guard_reads_literal_first_arguments():
    source = (
        'raise LabError("bad-a", "x")\n'
        "err = LabError('bad-b')\n"
        "raise LabError(token, 'not a literal')\n"
        'raise ValueError("bad-c")\n'
    )
    assert raised_tokens(source) == {"bad-a", "bad-b"}


def test_package_raises_tokens():
    assert "bad-count" in _package_tokens()


@pytest.mark.parametrize("token", _package_tokens())
def test_every_raised_token_is_named_by_a_test(token):
    sources = _test_sources()
    assert f'"{token}"' in sources or f"'{token}'" in sources
