"""Eutactic stars: families of dual-lattice vectors resolving the quadratic form.

A star on L is a family s_1..s_N of nonzero dual vectors; it is eutactic when
sum_j (s_j, x)^2 = (x, x) for every x in L.  Writing u_j = gram s_j for the
(integral) pairing vectors, both sides are quadratic forms on Z^l, and symmetric
matrices agreeing as quadratic forms on Z^l agree, so eutaxy is the exact matrix
identity sum_j u_j u_j^T = gram.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Q
from functools import cached_property
from operator import mul
from typing import Sequence

from .lattice import (InputError, InternalError, Lattice, _read_json, format_vector,
                      lattice_from_json_dict, rational_parts)
from .linalg import Vec, clear_denominators


class EutacticStar:
    """A star on L, given by its integral pairing vectors u_j = gram s_j.

    The pairings are the star's data; the vectors s_j = gram^-1 u_j are
    derived, exactly, when first read.  The name is aspirational: construction
    does not require eutaxy (is_eutactic tests it), only that every u_j is a
    nonzero integer tuple of the lattice's rank, so that every s_j is a
    nonzero vector of the dual lattice.
    """

    def __init__(self, lattice: Lattice, pairings: Sequence[Sequence]):
        if len(pairings) == 0:
            raise InputError("a star needs at least one vector")
        ints, all_int = [], (int,) * lattice.rank
        for j, u in enumerate(pairings):
            if len(u) != lattice.rank:
                raise InputError(f"vector {j}: length {len(u)}, expected {lattice.rank}")
            row = u
            if tuple(map(type, u)) != all_int:
                try:
                    (row,), den = clear_denominators([u])
                except InputError as e:
                    raise InputError(f"vector {j}: {e}") from None
                if den != 1:
                    raise InputError(f"vector {j}: not in the dual lattice "
                                     f"(pairings {[str(Q(x)) for x in u]})")
            if not any(row):
                raise InputError(f"vector {j}: zero vector not allowed")
            ints.append(tuple(row))
        self.lattice = lattice
        self.pairings: tuple[tuple[int, ...], ...] = tuple(ints)
        self.size = len(ints)

    @cached_property
    def _dual_coords(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(W, g) with s_j = W_j / g: W_j = gi u_j, for the lattice's
        gram^-1 = gi / g.

        gram gi == g I is checked once, in int, before any W_j is formed; it
        implies gram W_j == g u_j for every j, whichever columns of gi the
        pairings use.
        """
        gi, g = self.lattice.dual_gram()
        cols = list(zip(*gi))
        for i, r in enumerate(self.lattice.gram):
            if any(sum(map(mul, r, c)) != (g if k == i else 0) for k, c in enumerate(cols)):
                raise InternalError(f"gram G^-1 != I in row {i}")
        return tuple([tuple([sum(map(mul, r, u)) for r in gi]) for u in self.pairings]), g

    @cached_property
    def vectors(self) -> tuple[Vec, ...]:
        """s_j = gram^-1 u_j = W_j / g, exactly."""
        ws, g = self._dual_coords
        return tuple(tuple(Q(x, g) for x in w) for w in ws)

    def __repr__(self) -> str:
        return f"EutacticStar(N={self.size}, rank={self.lattice.rank})"

    def to_json_dict(self) -> dict:
        return {"gram": self.lattice.to_json_dict()["gram"],
                "vectors": [format_vector(v) for v in self.vectors]}


def star_from_vectors(lattice: Lattice, vectors: Sequence[Sequence]) -> EutacticStar:
    """The star of the given dual-lattice vectors s_j, through their pairings gram s_j."""
    ints, den = clear_denominators([v for v in vectors if len(v) == lattice.rank])
    return _star_from_scaled(lattice, vectors, ints, den)


def _star_from_scaled(lattice: Lattice, vectors: Sequence[Sequence],
                      ints: Sequence[Sequence[int]], den: int) -> EutacticStar:
    """The star of the vectors, those of the lattice's rank being ints / den.

    Each pairing is gram (den s_j) / den, in int; one that is not integral is
    passed on in Fraction, and a vector of the wrong length as it is, for the
    constructor to report.
    """
    rows = iter(ints)
    pairings = []
    for v in vectors:
        if len(v) != lattice.rank:
            pairings.append(v)
            continue
        xs = next(rows)
        u = [sum(map(mul, r, xs)) for r in lattice.gram]
        if all(x % den == 0 for x in u):
            pairings.append([x // den for x in u])
        else:
            pairings.append([Q(x, den) for x in u])
    return EutacticStar(lattice, pairings)


def star_from_pairings(lattice: Lattice, pairings: Sequence[Sequence[int]]) -> EutacticStar:
    """The star whose pairing vectors are the given integer tuples."""
    return EutacticStar(lattice, pairings)


def is_eutactic(star: EutacticStar) -> bool:
    """sum_j u_j u_j^T == gram, entrywise over the integers."""
    l = star.lattice.rank
    acc = [[0] * l for _ in range(l)]
    for u in star.pairings:
        for i in range(l):
            ui = u[i]
            if ui:
                row = acc[i]
                for k in range(l):
                    row[k] += ui * u[k]
    return all(acc[i][k] == star.lattice.gram[i][k] for i in range(l) for k in range(l))


def divisor_multiplicity(star: EutacticStar, v: Sequence) -> int:
    """Number of star vectors lying on the line through v (v nonzero).

    gram is nonsingular, so s_j lies on the line through v iff u_j = gram s_j
    lies on the line through gram v: every 2x2 minor of u_j and w vanishes,
    with w the pairings of v scaled to int.
    """
    (xs,), _ = clear_denominators([v])
    if len(xs) != star.lattice.rank:
        raise InputError(f"divisor_multiplicity: v has length {len(xs)}, "
                         f"expected {star.lattice.rank}")
    if not any(xs):
        raise InputError("divisor_multiplicity: v must be nonzero")
    w = [sum(map(mul, r, xs)) for r in star.lattice.gram]
    l = len(w)
    return sum(all(u[i] * w[k] == u[k] * w[i] for i in range(l) for k in range(i))
               for u in star.pairings)


def integer_support(star: EutacticStar) -> tuple[list[tuple[int, ...]], int]:
    """(W, g): the support set {+-s_j} is W / g, for W the sorted set of the
    +-g s_j.  Each g s_j is a nonzero int tuple of the lattice's rank, so W
    has no zero and no repeat, and W = -W."""
    ws, g = star._dual_coords
    support = set(ws)
    support.update(tuple([-x for x in w]) for w in ws)
    return sorted(support), g


class _PartsMemo(dict):
    """rational_parts of each string key, computed on its first lookup."""

    def __missing__(self, s: str) -> tuple[int, int]:
        pq = self[s] = rational_parts(s)
        return pq


def star_from_json_dict(data) -> EutacticStar:
    """The star of a JSON object {"gram": rows of ints, "vectors": rows of
    rationals}, each rational a 'p/q' or 'n' string or an int.

    A file holds few distinct strings, so each one is parsed once per call;
    every other entry goes through rational_parts on its own.  Entries are
    read in file order, so the first bad one raises the same InputError as
    when each entry is parsed on its own.
    """
    if not isinstance(data, dict) or "gram" not in data or "vectors" not in data:
        raise InputError('star JSON must be an object with "gram" and "vectors"')
    lat = lattice_from_json_dict({"gram": data["gram"]})
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise InputError('"vectors" must be a list of vectors')
    # Entries are read as (p, q), and scaled to int by the lcm of the q's.
    memo = _PartsMemo()
    parts = [[memo[x] if type(x) is str else rational_parts(x) for x in v] for v in vectors]
    rows = [row for row in parts if len(row) == lat.rank]
    den = math.lcm(*(q for row in rows for _, q in row))
    return _star_from_scaled(lat, parts, [[p * (den // q) for p, q in row] for row in rows], den)


def load_star(path: str) -> EutacticStar:
    return star_from_json_dict(_read_json(path, "star"))


def dump_star(star: EutacticStar) -> str:
    return json.dumps(star.to_json_dict(), sort_keys=True)

