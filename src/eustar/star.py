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
from typing import Sequence

from .lattice import (InputError, Lattice, format_vector, lattice_from_json_dict,
                      parse_vector)
from .linalg import Vec, dot, qvec


class EutacticStar:
    """A star of N nonzero dual-lattice vectors with cached integer pairings.

    The name is aspirational: construction does not require eutaxy (is_eutactic
    tests it), only that every vector is nonzero and lies in the dual lattice.
    """

    def __init__(self, lattice: Lattice, vectors: Sequence[Sequence]):
        if len(vectors) == 0:
            raise InputError("a star needs at least one vector")
        self.lattice = lattice
        vecs = []
        pairings = []
        for j, v in enumerate(vectors):
            v = qvec(v)
            if len(v) != lattice.rank:
                raise InputError(f"vector {j}: length {len(v)}, expected {lattice.rank}")
            if all(x == 0 for x in v):
                raise InputError(f"vector {j}: zero vector not allowed")
            p = lattice.pairings(v)
            if any(x.denominator != 1 for x in p):
                raise InputError(f"vector {j}: not in the dual lattice "
                                 f"(pairings {[str(x) for x in p]})")
            vecs.append(v)
            pairings.append(tuple(int(x) for x in p))
        self.vectors: tuple[Vec, ...] = tuple(vecs)
        self.pairings: tuple[tuple[int, ...], ...] = tuple(pairings)
        self.size = len(vecs)

    def __repr__(self) -> str:
        return f"EutacticStar(N={self.size}, rank={self.lattice.rank})"

    def to_json_dict(self) -> dict:
        return {"gram": self.lattice.to_json_dict()["gram"],
                "vectors": [format_vector(v) for v in self.vectors]}


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
    return tuple(dot(u, x) for u in star.pairings)


def divisor_multiplicity(star: EutacticStar, v: Sequence) -> int:
    """Number of star vectors lying on the line through v (v nonzero)."""
    v = qvec(v)
    if len(v) != star.lattice.rank:
        raise InputError(f"divisor_multiplicity: v has length {len(v)}, "
                         f"expected {star.lattice.rank}")
    if all(x == 0 for x in v):
        raise InputError("divisor_multiplicity: v must be nonzero")
    count = 0
    for s in star.vectors:
        # s parallel to v: all 2x2 minors of the pair vanish.
        if all(s[i] * v[k] == s[k] * v[i] for i in range(len(v)) for k in range(i)):
            # s nonzero by construction, so s = c v with c != 0.
            i = next(i for i, x in enumerate(v) if x != 0)
            if s[i] != 0:
                count += 1
    return count


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
    return EutacticStar(lat, [parse_vector(v) for v in vectors])


def load_star(path: str) -> EutacticStar:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read star file {path}: {exc}") from None
    return star_from_json_dict(data)


def dump_star(star: EutacticStar) -> str:
    return json.dumps(star.to_json_dict(), sort_keys=True)


def star_from_pairings(lattice: Lattice, pairings: Sequence[Sequence[int]]) -> EutacticStar:
    """Build the star whose pairing vectors are the given integer tuples."""
    dual = lattice.dual_gram()
    vectors = [tuple(dot(row, qvec(u)) for row in dual) for u in pairings]
    return EutacticStar(lattice, vectors)
