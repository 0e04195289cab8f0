"""Eutactic stars: families of dual-lattice vectors resolving the quadratic form.

A star on L is a family s_1..s_N of nonzero dual vectors; it is eutactic when
sum_j (s_j, x)^2 = (x, x) for every x in L.  Writing u_j = gram s_j for the
(integral) pairing vectors, both sides are quadratic forms on Z^l, and symmetric
matrices agreeing as quadratic forms on Z^l agree, so eutaxy is the exact matrix
identity sum_j u_j u_j^T = gram.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction as Q
from functools import cached_property
from operator import mul
from typing import Sequence

from .lattice import (InputError, InternalError, Lattice, format_vector,
                      lattice_from_json_dict, parse_vector)
from .linalg import Vec, clear_denominators, dot, qvec


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
        ints = []
        for j, u in enumerate(pairings):
            if len(u) != lattice.rank:
                raise InputError(f"vector {j}: length {len(u)}, expected {lattice.rank}")
            (row,), den = clear_denominators([u])
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
    def vectors(self) -> tuple[Vec, ...]:
        """s_j = gram^-1 u_j = (gi u_j) / g, with gram (gi u_j) = g u_j checked in int."""
        gi, g = self.lattice.dual_gram()
        vectors = []
        for j, u in enumerate(self.pairings):
            w = [sum(map(mul, r, u)) for r in gi]
            if any(sum(map(mul, r, w)) != g * x for r, x in zip(self.lattice.gram, u)):
                raise InternalError(f"vector {j}: gram G^-1 u != u for u = {list(u)}")
            vectors.append(tuple(Q(x, g) for x in w))
        return tuple(vectors)

    def __repr__(self) -> str:
        return f"EutacticStar(N={self.size}, rank={self.lattice.rank})"

    def to_json_dict(self) -> dict:
        return {"gram": self.lattice.to_json_dict()["gram"],
                "vectors": [format_vector(v) for v in self.vectors]}


def star_from_vectors(lattice: Lattice, vectors: Sequence[Sequence]) -> EutacticStar:
    """The star of the given dual-lattice vectors s_j, through their pairings gram s_j.

    gram is square, so a pairing tuple has its vector's length; a vector of
    the wrong length is passed on as it is, for the constructor to report.
    """
    return EutacticStar(lattice, [lattice.pairings(v) if len(v) == lattice.rank else v
                                  for v in vectors])


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


def embed(star: EutacticStar, x: Sequence) -> Vec:
    """The pairing tuple ((s_1, x), ..., (s_N, x)); integral for lattice x.

    For a eutactic star this is the isometric embedding of L into Z^N.
    """
    x = qvec(x)
    if len(x) != star.lattice.rank:
        raise InputError(f"embed: x has length {len(x)}, expected {star.lattice.rank}")
    return tuple(dot(u, x) for u in star.pairings)


def divisor_multiplicity(star: EutacticStar, v: Sequence) -> int:
    """Number of star vectors lying on the line through v (v nonzero).

    gram is nonsingular, so s_j lies on the line through v iff u_j = gram s_j
    lies on the line through gram v: every 2x2 minor of u_j and w vanishes,
    with w the pairings of v scaled to int.
    """
    v = qvec(v)
    if len(v) != star.lattice.rank:
        raise InputError(f"divisor_multiplicity: v has length {len(v)}, "
                         f"expected {star.lattice.rank}")
    if all(x == 0 for x in v):
        raise InputError("divisor_multiplicity: v must be nonzero")
    (w,), _ = clear_denominators([star.lattice.pairings(v)])
    l = len(w)
    return sum(all(u[i] * w[k] == u[k] * w[i] for i in range(l) for k in range(i))
               for u in star.pairings)


def support_set(star: EutacticStar) -> tuple[list[Vec], list[tuple[Vec, int]]]:
    """The set {±s_j}, sorted, plus a report of repeated family members.

    The report lists (vector, multiplicity) for each exact repeat in the family;
    an antipodal pair s, -s is two distinct members and is not a repeat.
    """
    counts = Counter(star.vectors)
    support = set()
    for s in star.vectors:
        support.add(s)
        support.add(tuple(-x for x in s))
    duplicates = sorted((v, c) for v, c in counts.items() if c > 1)
    return sorted(support), duplicates


def star_from_json_dict(data) -> EutacticStar:
    if not isinstance(data, dict) or "gram" not in data or "vectors" not in data:
        raise InputError('star JSON must be an object with "gram" and "vectors"')
    lat = lattice_from_json_dict({"gram": data["gram"]})
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise InputError('"vectors" must be a list of vectors')
    return star_from_vectors(lat, [parse_vector(v) for v in vectors])


def load_star(path: str) -> EutacticStar:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read star file {path}: {exc}") from None
    return star_from_json_dict(data)


def dump_star(star: EutacticStar) -> str:
    return json.dumps(star.to_json_dict(), sort_keys=True)

