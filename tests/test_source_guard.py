"""Exactness guard over the package source.

Verdicts are computed with int and Fraction only, and runtime invariants are
checks that raise, because ``python -O`` strips ``assert``.  So no module
under src/eustar may hold an assert statement, a float literal or a call to
float.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "eustar").glob("*.py"))


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "call to float"


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_float(path):
    found = list(_violations(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{path.name}: {found}"
