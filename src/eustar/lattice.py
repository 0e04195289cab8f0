"""Integral positive definite lattices with exact rational arithmetic.

A lattice is Z^l equipped with an integer Gram matrix; vectors of the ambient
rational span are coordinate tuples of Fraction relative to that fixed basis.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Q
from typing import Sequence

from .linalg import Mat, Vec, dot, invert, qvec, sym_elim


class InputError(ValueError):
    """Malformed or out-of-contract input (maps to CLI exit code 2)."""


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in eustar, never a property of the input."""


def parse_rational(s) -> Q:
    """Parse 'p/q' or 'n' into an exact rational; reject anything else."""
    if isinstance(s, bool):
        raise InputError(f"expected a rational, got the boolean {s!r}")
    if isinstance(s, int):
        return Q(s)
    if not isinstance(s, str):
        raise InputError(f"expected a rational string, got {type(s).__name__}")
    try:
        return Q(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}: {exc}") from None


def format_rational(x: Q) -> str:
    """Canonical 'p/q' in lowest terms, plain 'n' for integers."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_vector(entries: Sequence) -> Vec:
    return tuple(parse_rational(e) for e in entries)


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
        # Positive definite iff every pivot (a leading principal minor) is > 0.
        pivots = sym_elim(self.gram)
        if pivots is None or any(pivots[k][k] == 0 for k in range(n)):
            raise InputError("Gram matrix is not positive definite")
        self.rank = n
        self._dual_gram: Mat | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"Lattice({[list(row) for row in self.gram]})"

    def inner(self, x: Sequence, y: Sequence) -> Q:
        """(x, y) = x^T gram y."""
        return dot(qvec(x), self.pairings(y))

    def dual_gram(self) -> Mat:
        """Exact inverse of the Gram matrix (Gram of the dual basis)."""
        if self._dual_gram is None:
            inv = invert(self.gram)
            if inv is None:
                raise InternalError("a positive definite Gram matrix has no inverse")
            self._dual_gram = inv
        return self._dual_gram

    def pairings(self, x: Sequence) -> Vec:
        """gram @ x: the pairings of x with the basis vectors.

        With den the lcm of x's denominators, den * x is integral, so each
        pairing is one integer sum over den.
        """
        x = qvec(x)
        if len(x) != self.rank:
            raise ValueError(f"dimension mismatch: {self.rank} vs {len(x)}")
        den = math.lcm(*(a.denominator for a in x))
        xs = [a.numerator * (den // a.denominator) for a in x]
        return tuple(Q(sum(g * a for g, a in zip(row, xs)), den) for row in self.gram)

    def to_json_dict(self) -> dict:
        return {"gram": [list(row) for row in self.gram]}


def lattice_from_json_dict(data) -> Lattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError('lattice JSON must be an object with a "gram" key')
    gram = data["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise InputError('"gram" must be a list of rows')
    return Lattice(gram)


def load_lattice(path: str) -> Lattice:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read lattice file {path}: {exc}") from None
    return lattice_from_json_dict(data)
