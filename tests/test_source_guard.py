"""Exactness guard over the package source.

Verdicts are computed with int and Fraction only, and runtime invariants are
checks that raise, because ``python -O`` strips ``assert``.  So no module
under src/eustar may hold an assert statement, a float literal or a call to
float.  Every module-level import outside ``__init__.py`` (which re-exports)
must be used, so a helper that stops needing a module drops its import.
In linalg.py, Fraction is built only where rational values enter or leave:
every elimination runs in int, and its functions are pinned, so linalg.py
keeps one kernel.  The product kernel of qseries.py works on
packed integer keys and builds no Fraction.  No module reads the process
environment, and the command line surface is pinned, so every output depends
only on argv and the files named.  The library surface, ``eustar.__all__``,
is pinned too.
"""

import argparse
import ast
from pathlib import Path

import pytest

import eustar
from eustar.cli import build_parser

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


# The functions and methods of each module that may build a Fraction: those
# that read, return or print rationals.  Every other function works in int.
FRACTION_EDGES = {
    "__init__.py": set(),
    "certify.py": {"deficiency", "_search", "certify_extremal", "certify_if_extremal"},
    "cli.py": set(),
    "lattice.py": {"format_rational"},
    "linalg.py": {"clear_denominators"},
    "qseries.py": {"heat_apply", "check_holomorphic"},
    "rootsys.py": {"catalog", "recognize_star"},
    "search.py": set(),
    "star.py": {"EutacticStar.__init__", "EutacticStar.vectors", "_star_from_scaled"},
}


def _owners(tree):
    """(name, node) for each top-level function and each method, as Class.method;
    any other top-level statement is owned by None, a class's own by the class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                yield (f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef)
                       else top.name), node
        else:
            yield None, top


def _fraction_uses(tree):
    """(owner, line) for each use of Q or Fraction as a value: a call, or the
    name passed on, as in map(Q, xs).  Type annotations and subscripts and
    the class argument of isinstance build nothing and are skipped."""
    types = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    types.update(ast.walk(a.annotation))
            if node.returns is not None:
                types.update(ast.walk(node.returns))
        elif isinstance(node, ast.AnnAssign):
            types.update(ast.walk(node.annotation))
        elif isinstance(node, ast.Subscript):
            types.update(ast.walk(node.slice))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            types.update(ast.walk(node.args[1]))
    for owner, top in _owners(tree):
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("Q", "Fraction") \
                    and node not in types:
                yield owner, node.lineno


def test_fraction_edges_cover_every_module():
    assert set(FRACTION_EDGES) == {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fractions_only_at_the_edges(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    edges = FRACTION_EDGES[path.name]
    # Every listed function exists and builds a Fraction, so the table
    # cannot go stale; no other code builds one.
    assert edges <= {name for name, _ in _owners(tree)}
    uses = list(_fraction_uses(tree))
    assert {name for name, _ in uses} == edges, uses


def test_fraction_uses_sees_calls_and_names_passed_on():
    code = ("from fractions import Fraction as Q\n"
            "V = tuple[Q, ...]\n"
            "def f(x: Q) -> Q:\n    return isinstance(x, Q)\n"
            "def g(xs):\n    return list(map(Q, xs))\n"
            "class C:\n    y: Q\n    def h(self):\n        return Q.from_float(0)\n")
    assert [name for name, _ in _fraction_uses(ast.parse(code))] == ["g", "C.h"]


# The theta block's product kernel in qseries.py: lowest slot, row pair loop
# with its balanced cut, slot width, fold order, fold from the eta row with
# rows built from the pairings and truncation, set-bit slot decode.  It works
# on packed integer keys.
PRODUCT_KERNEL = {"_low_slot", "_accumulate", "_slot_bits", "_fold_order",
                  "_product", "_slots"}


def test_product_kernel_builds_no_fractions():
    path = next(p for p in SOURCES if p.name == "qseries.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert PRODUCT_KERNEL <= {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert not PRODUCT_KERNEL & FRACTION_EDGES["qseries.py"]


# linalg.py's one elimination kernel, its rational entry, the inverse read
# off it and the one lattice-point walker on its rows.  A second reduction
# shows up here.
LINALG_KERNEL = {"clear_denominators", "sym_elim", "invert", "_close_points"}


def test_linalg_holds_one_kernel():
    path = next(p for p in SOURCES if p.name == "linalg.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert {top.name for top in tree.body if isinstance(top, ast.FunctionDef)} == LINALG_KERNEL


def _environment_reads(tree):
    """Lines that name the process environment: os.environ, os.getenv, or a
    bare environ or getenv imported from os."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # Every output depends only on argv and the files it names.
    found = list(_environment_reads(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{path.name}: reads the environment at lines {found}"


def test_environment_reads_sees_every_spelling():
    code = ("import os\nfrom os import environ, getenv\n"
            "a = os.environ.get('X')\nb = os.getenv('X')\nc = environ\n")
    assert sorted(set(_environment_reads(ast.parse(code)))) == [2, 3, 4, 5]


# Each subcommand of the CLI and its option strings, positionals by dest.
# A new knob or a second spelling of an old one shows up here.
CLI_SURFACE = {
    "check": ["-h", "--help", "star"],
    "extremal": ["-h", "--help", "star", "--type"],
    "expand": ["-h", "--help", "star", "--type", "--order", "--eta",
               "--check-holomorphic", "--check-singular", "--heat"],
    "catalog": ["-h", "--help", "--type", "--lattice"],
    "search": ["-h", "--help", "lattice"],
    "recognize": ["-h", "--help", "star"],
}


def test_cli_surface_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: [s for a in p._actions for s in (a.option_strings or [a.dest])]
               for name, p in sub.choices.items()}
    assert surface == CLI_SURFACE


# The names eustar exports.  A new public helper shows up here.
LIBRARY_SURFACE = [
    "EutacticStar", "ExtremalityCertificate", "FourierSeries", "InputError",
    "InternalError", "Lattice", "RecognitionReport", "RootSystemDescriptor",
    "build_P_lattice", "build_star", "canonical_pairings", "catalog", "catalog_labels",
    "certify_extremal", "certify_if_extremal", "check_antisymmetry", "check_holomorphic",
    "check_singular_support", "deficiency", "divisor_multiplicity", "dump_series",
    "dump_star", "enumerate_stars", "heat_apply", "is_eutactic",
    "load_lattice", "load_star", "min_deficiency", "recognize_star", "reflect_series",
    "star_from_pairings", "star_from_vectors", "theta_block", "verify_theorem",
]


def test_library_surface_pinned():
    assert sorted(eustar.__all__) == LIBRARY_SURFACE
    assert all(hasattr(eustar, name) for name in eustar.__all__)
