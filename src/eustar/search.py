"""Complete enumeration of eutactic stars on a lattice, and the theorem check.

A star's pairing vectors u_j decompose the Gram matrix as sum_j u_j u_j^T, so
enumerating stars means enumerating such rank-one decompositions.  Vectors are
chosen sign-normalized (first nonzero entry positive) in non-increasing
lexicographic order, which makes the backtracking emit exactly one canonical
representative per orbit under reordering and per-vector sign flips; the
residual must stay positive semidefinite at every step, which bounds entries
by isqrt(gram_ii) and the length by the trace.

Two facts keep the backtracking on live branches.  The lead positions of the
sorted alphabet never decrease, so a node only tries the vectors whose lead
is its residual's first nonzero diagonal entry: an earlier lead would make a
zero diagonal entry negative, and a later one, like every vector after it,
can never clear that entry.  And R - u u^T is PSD iff the bordered matrix
[[R, u], [u^T, 1]] is (it is the Schur complement of the 1), so one integer
Bareiss elimination ``linalg.sym_elim`` of [R | u_1 .. u_m] per node tests
every candidate, O(l) each, instead of one O(l^3) elimination per child.

The backtracking runs in coordinates of its own choosing.  They are sorted by
the Gram diagonal, ascending, ties by index: small diagonal entries come
first, so the rows that every node clears first have the smallest boxes and
the fewest alphabet vectors.  Their signs are the flips that make the Gram's
upper triangle, read row by row, lexicographically least, so the search does
not depend on the signs of the basis vectors, nor on their order where the
diagonal entries differ.  Each star is mapped back to the lattice's basis and
put in canonical form.  The DFS emits its stars in descending lexicographic
order and no star is a prefix of another, so sorting the mapped stars in
descending order gives the same list, in the same order, as a search in the
lattice's own coordinates.

The alphabet is drawn from the box prod_i [-isqrt(G_ii), isqrt(G_ii)], which
is sized before it is built: past MAX_BOX_VECTORS the lattice is refused as
InputError.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import product
from operator import le, mul
from typing import Sequence

from .certify import certify_if_extremal
from .lattice import InputError, InternalError, Lattice, format_vector
from .linalg import sym_elim
from .rootsys import recognize_star
from .star import EutacticStar, star_from_pairings

# The most vectors the alphabet box prod_i (2 isqrt(G_ii) + 1) may hold; the
# B4 weight lattice has 14,641.
MAX_BOX_VECTORS = 10 ** 6


def canonical_pairings(pairings: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a pairing multiset: sign-normalized rows, sorted descending."""
    normed = []
    for u in pairings:
        u = tuple(int(x) for x in u)
        lead = next((x for x in u if x != 0), 0)
        normed.append(u if lead > 0 else tuple(-x for x in u))
    return tuple(sorted(normed, reverse=True))


def _fitting(r: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]],
             squares: Sequence[Sequence[int]]) -> list[int]:
    """Indices j, ascending, with r - u_j u_j^T PSD, for a PSD integer matrix r.

    A vector with some u_a^2 > r[a][a], squares[j] holding the u_a^2 of
    vectors[j], fails on the diagonal and is dropped first.  Bareiss on
    the bordered matrix [[r, u], [u^T, 1]] runs through r's pivots and
    leaves u's column as sym_elim carries it on [r | u]; with a zero pivot
    that column entry must be 0, and the corner, updated at each positive
    pivot p as (p corner - y^2) // prev (exact, by Sylvester's identity),
    must end >= 0.
    """
    l = len(r)
    diag = [r[a][a] for a in range(l)]
    live = [j for j, sq in enumerate(squares) if all(map(le, sq, diag))]
    if not live:
        return []
    rows = sym_elim([list(r[i]) + [vectors[j][i] for j in live] for i in range(l)])
    if rows is None:
        raise InternalError("a residual of star enumeration is not positive semidefinite")
    pivots = [(rows[k][k], rows[k]) for k in range(l)]
    fit = []
    for c, j in enumerate(live, l):
        corner, prev = 1, 1
        for p, row in pivots:
            y = row[c]
            if p:
                corner = (p * corner - y * y) // prev
                prev = p
            elif y:
                break
        else:
            if corner >= 0:
                fit.append(j)
    return fit


def enumerate_stars(lattice: Lattice, *, max_n: int | None = None) -> list[EutacticStar]:
    """All stars with sum_j u_j u_j^T = gram, complete and deterministic.

    One representative per reorder/sign-flip orbit, in canonical form.  The
    keyword-only max_n aborts enumeration once a branch that can still reach
    a zero residual needs more vectors; branches the lead-position cut
    removes are never entered and do not count.  The search runs in sorted,
    sign-normalized coordinates (see the module docstring); the stars come
    back in the lattice's basis.
    """
    gram, l = lattice.gram, lattice.rank
    order = sorted(range(l), key=lambda i: (gram[i][i], i))
    bound = [math.isqrt(gram[i][i]) for i in order]
    if math.prod(2 * b + 1 for b in bound) > MAX_BOX_VECTORS:
        raise InputError(f"the alphabet box of this Gram matrix has more than "
                         f"{MAX_BOX_VECTORS} vectors")
    # Search coordinate a is signs[a] times lattice coordinate order[a].  The
    # box holds at least 3^l vectors, so the 2^(l-1) sign choices are few.
    signs = min(product((1,), *[(1, -1)] * (l - 1)),
                key=lambda s: [s[a] * s[b] * gram[order[a]][order[b]]
                               for a in range(l) for b in range(a + 1, l)])
    g = [[signs[a] * signs[b] * gram[i][j] for b, j in enumerate(order)]
         for a, i in enumerate(order)]
    box = [u for u in product(*(range(-b, b + 1) for b in bound))
           if next((x for x in u if x != 0), 0) > 0]
    fit = _fitting(g, box, [tuple(map(mul, u, u)) for u in box])
    alphabet = sorted((box[j] for j in fit), reverse=True)
    squares = [tuple(map(mul, u, u)) for u in alphabet]
    # The alphabet vectors with lead position p are alphabet[begin[p]:begin[p + 1]].
    leads = [next(k for k, x in enumerate(u) if x != 0) for u in alphabet]
    begin = [bisect_left(leads, p) for p in range(l + 1)]
    # Pairing order[a] in the lattice's basis is signs[a] times pairing a in the
    # search's; each alphabet vector is mapped back, sign-normalized, once.
    back = sorted(range(l), key=order.__getitem__)
    mapped = [canonical_pairings([[signs[a] * u[a] for a in back]])[0] for u in alphabet]

    found: list[tuple[tuple[int, ...], ...]] = []

    def backtrack(start: int, residual: Sequence[Sequence[int]], chosen: list) -> None:
        # A PSD residual with a zero diagonal entry has a zero row there.
        first = next((k for k in range(l) if residual[k][k] > 0), None)
        if first is None:
            found.append(tuple(sorted(chosen, reverse=True)))
            return
        if max_n is not None and len(chosen) >= max_n:
            raise InputError(f"enumeration exceeded max_n={max_n}")
        lo, hi = max(start, begin[first]), begin[first + 1]
        for j in _fitting(residual, alphabet[lo:hi], squares[lo:hi]):
            u = alphabet[lo + j]
            chosen.append(mapped[lo + j])
            backtrack(lo + j, [[residual[a][b] - u[a] * u[b] for b in range(l)]
                               for a in range(l)], chosen)
            chosen.pop()

    backtrack(0, g, [])
    found.sort(reverse=True)
    return [star_from_pairings(lattice, rep) for rep in found]


def verify_theorem(lattice: Lattice) -> dict:
    """Certify every star on the lattice; recognize the support of extremal ones.

    A counterexample would be an extremal star whose support set fails root
    system recognition; the report lists them (expected: never).  A star
    that is not extremal is dropped at the first point below its threshold
    (``certify_if_extremal``).
    """
    stars = enumerate_stars(lattice)
    extremal = []
    counterexamples = []
    for star in stars:
        cert = certify_if_extremal(star)
        if cert is None:
            continue
        report = recognize_star(star)
        # certify_if_extremal only accepts a eutactic star, sum u_j u_j^T = G
        # with G positive definite, so the u_j span and rank_match holds.
        entry = {
            "pairings": [list(u) for u in star.pairings],
            "vectors": [format_vector(v) for v in star.vectors],
            "certificate": cert.to_json_dict(),
            "types": report.label,
            "rank_match": True,
        }
        if report.ok:
            extremal.append(entry)
        else:
            entry["reason"] = "recognition failed: " + str(report.failure)
            counterexamples.append(entry)
    return {"stars": len(stars), "extremal": extremal,
            "counterexamples": counterexamples}
