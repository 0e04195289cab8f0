"""Exactness guard over the package source.

Verdicts are computed with int and Fraction only, and runtime invariants are
checks that raise, because ``python -O`` strips ``assert``.  So no module
under src/eustar may hold an assert statement, a float literal or a call to
float.  Every module-level import outside ``__init__.py`` (which re-exports)
must be used, so a helper that stops needing a module drops its import.
In linalg.py, Fraction is built only where rational values enter or leave:
every elimination runs in int.  The product kernel of qseries.py works on
packed integer keys and builds no Fraction.  star.py never calls
``Lattice.pairings``: it derives pairings, vectors and support sets from
integer tuples and builds a Fraction only for a vector it returns or an
error it reports, so loading a star file never round-trips through Fraction
pairings.
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


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_used(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_check_sees_functions_passed_as_arguments():
    # qseries passes operator.mul to map without calling it by name.
    assert _unused_imports(ast.parse("from operator import mul\nx = 1\n")) == [(1, "mul")]
    assert _unused_imports(ast.parse("from operator import mul\nx = map(mul, a, b)\n")) == []


# The functions of linalg.py that may build a Fraction.
FRACTION_ENTRY_POINTS = {"qvec", "dot", "clear_denominators"}


def _fraction_calls(tree):
    """(function, line) for each call of Q or Fraction, by enclosing top-level function."""
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                base = f.value if isinstance(f, ast.Attribute) else f
                if isinstance(base, ast.Name) and base.id in ("Q", "Fraction"):
                    yield name, node.lineno


def test_linalg_builds_fractions_only_at_its_edges():
    path = next(p for p in SOURCES if p.name == "linalg.py")
    calls = list(_fraction_calls(ast.parse(path.read_text(), filename=str(path))))
    assert {name for name, _ in calls} <= FRACTION_ENTRY_POINTS, calls
    assert calls  # the walk does see the entry points


# The product kernel of qseries.py: parity scan, row packing, lowest slot,
# balanced cut, rows grouped by lowest slot, row pair loop, fold and
# truncation, set-bit slot decode.
PRODUCT_KERNEL = {"_parity", "_packed", "_low_slot", "_cut", "_groups", "_accumulate",
                  "_product", "_slots"}


def test_product_kernel_builds_no_fractions():
    path = next(p for p in SOURCES if p.name == "qseries.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert PRODUCT_KERNEL <= {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    calls = list(_fraction_calls(tree))
    assert calls  # the walk does see the series' own Fraction calls
    assert not [(name, line) for name, line in calls if name in PRODUCT_KERNEL], calls


def test_star_never_calls_lattice_pairings():
    path = next(p for p in SOURCES if p.name == "star.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    attributes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "pairings"]
    assert attributes  # the walk does see the stars' own pairings
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "pairings"]
    assert not calls, calls
