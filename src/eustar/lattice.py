"""Integral positive definite lattices with exact rational arithmetic.

A lattice is Z^l equipped with an integer Gram matrix.  Files hold rationals
as 'p/q' or 'n' strings: ``rational_parts`` reads one as an integer pair, and
``format_rational`` writes one back.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q
from typing import Sequence

from .linalg import InputError, IntMat, invert


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in eustar, never a property of the input."""


_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*\Z", re.ASCII)


def rational_parts(s) -> tuple[int, int]:
    """(p, q) with q > 0 and s = p/q, not always in lowest terms, for s an int
    or a string 'p/q' or 'n'; an InputError for anything else.

    p and n are ASCII decimal integers with an optional sign, q is a nonzero
    one without a sign, and ASCII whitespace may surround the whole: no
    decimal point, exponent or underscore.
    """
    if isinstance(s, bool):
        raise InputError(f"expected a rational, got the boolean {s!r}")
    if isinstance(s, int):
        return s, 1
    if not isinstance(s, str):
        raise InputError(f"expected a rational string, got {type(s).__name__}")
    m = _RATIONAL_RE.match(s)
    if m is None:
        raise InputError(f"bad rational {s!r}: expected 'p/q' or 'n'")
    try:
        p, q = int(m[1]), int(m[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"bad rational {s!r}: {exc}") from None
    if q == 0:
        raise InputError(f"bad rational {s!r}: zero denominator")
    return p, q


def format_rational(x: Q) -> str:
    """Canonical 'p/q' in lowest terms, plain 'n' for integers."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_vector(v: Sequence) -> list[str]:
    return [format_rational(x) for x in v]


class Lattice:
    """Z^l with an integer symmetric positive definite Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]]):
        n = len(gram)
        if n == 0:
            raise InputError("empty Gram matrix")
        for i, row in enumerate(gram):
            if len(row) != n:
                raise InputError(f"Gram row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"Gram entry {x!r} is not an integer")
        self.gram: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in gram)
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InputError(f"Gram matrix is not symmetric at ({i},{j})")
        # invert is None unless the Gram matrix is positive definite.
        inv = invert(self.gram)
        if inv is None:
            raise InputError("Gram matrix is not positive definite")
        self.rank = n
        self._dual_gram: tuple[IntMat, int] = inv

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"Lattice({[list(row) for row in self.gram]})"

    def dual_gram(self) -> tuple[IntMat, int]:
        """(gi, g) with gram^-1 = gi / g in lowest terms: the Gram of the dual basis."""
        return self._dual_gram

    def to_json_dict(self) -> dict:
        return {"gram": [list(row) for row in self.gram]}


def lattice_from_json_dict(data) -> Lattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError('lattice JSON must be an object with a "gram" key')
    gram = data["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise InputError('"gram" must be a list of rows')
    return Lattice(gram)


def _read_json(path: str, what: str):
    """The JSON value in the UTF-8 file at path.

    A file that cannot be opened or decoded, is not JSON, nests too deeply
    or holds an integer with more digits than int() converts is an
    InputError, so the command line exits 2.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None


def load_lattice(path: str) -> Lattice:
    return lattice_from_json_dict(_read_json(path, "lattice"))
