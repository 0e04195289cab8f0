"""Complete enumeration of eutactic stars on a lattice, and the theorem check.

A star's pairing vectors u_j decompose the Gram matrix as sum_j u_j u_j^T, so
enumerating stars means enumerating such rank-one decompositions.  Vectors are
chosen sign-normalized (first nonzero entry positive) in non-increasing
lexicographic order, which makes the backtracking emit exactly one canonical
representative per orbit under reordering and per-vector sign flips; the
residual must stay positive semidefinite at every step, which bounds entries
by isqrt(gram_ii) and the length by the trace.

Four facts keep the backtracking on live branches, each searched once.  The
lead positions of the sorted alphabet never decrease, so a node only tries
the vectors whose lead is its residual's first nonzero diagonal entry f: an
earlier lead would make a zero diagonal entry negative, and a later one, like
every vector after it, can never clear that entry.  R - u u^T is PSD iff the
bordered matrix [[R, u], [u^T, 1]] is (it is the Schur complement of the 1),
so one integer Bareiss elimination ``linalg.sym_elim`` of [R | u_1 .. u_m]
per node tests every candidate, O(l) each, instead of one O(l^3) elimination
per child.  Where R_ff = 1 no test is needed: a u with lead f and
R - u u^T PSD has u_f = 1, so (R - u u^T)_ff = 0, that row of the PSD
matrix vanishes and u is R's row f; conversely R - u u^T for that row is
the Schur complement of a unit pivot, PSD (Cottle, Linear Algebra Appl. 8,
1974).  The row is always in the alphabet: u_b^2 <= R_ff R_bb <= G_bb, its
lead is 1, and G - u u^T is R - u u^T plus the vectors already chosen.  So
such a node has one child, found by one lookup, if that row's index is not
below lo, and none otherwise.  And a node's subtree depends only on its
residual R and on lo, the least index it may still use (its parent's vector,
or the first vector of R's lead block if that comes later), not on the
prefix that reached it: two prefixes often leave the same R
(a a^T + b b^T = c c^T + d d^T).  A table that lives for one call keys each
node on (R, lo), expands it once and keeps its live children, those that
reach a zero residual, so a repeated subtree is looked up instead of
searched again.  The stars are read off the live nodes at the end.  The
table holds every node the search reaches: on the B4 weight lattice 194,904
nodes, of which 92,710 run an elimination, where the plain backtracking
makes about 660,000.

Each node expanded is kept cheap.  Its f is found by scanning the diagonal
from its parent's f, since a vector is zero before its lead.  The rows of
[R | u_1 .. u_m] are slices of R's stored upper triangle, all that sym_elim
reads.  The candidates are the vectors of the node's index range [lo, hi)
that pass the diagonal test u_a^2 <= R_aa.  For integers that is
|u_a| <= isqrt(R_aa), so the candidates depend only on lo and those caps
(hi is set by the first nonzero cap), and a memo that lives for one call
lists them, with their entries by coordinate, once per such key.  A node
whose entry lists none is dead at once, with no bordered rows.  On the B4
weight lattice 65,227 nodes have a unit pivot, and the other 129,677 share
1,842 memo keys; 36,967 of them have no candidate.

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
from operator import le, sub
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


def _fitting(bordered: Sequence[Sequence[int]]) -> list[int]:
    """Positions c, ascending, of the columns u_c of [R | u_0 .. u_m-1] with
    R - u_c u_c^T PSD, for a PSD integer matrix R of which, like sym_elim,
    only the upper triangle is read.  The one PSD test of star enumeration.

    Bareiss on the bordered matrix [[R, u], [u^T, 1]] runs through R's pivots
    and leaves u's column as sym_elim carries it on [R | u]; with a zero
    pivot that column entry must be 0, and the corner, updated at each
    positive pivot p as (p corner - y^2) // prev (exact, by Sylvester's
    identity), must end >= 0.  With no columns there is nothing to test and
    no elimination is made.  The test is exact for any columns; the search
    only passes those within R's diagonal caps (see enumerate_stars), since
    a vector with some u_a^2 > R_aa fails on the diagonal.  It passes them
    only at a node with a candidate and no unit pivot: a unit pivot's one
    child is known without a test.
    """
    l = len(bordered)
    if len(bordered[0]) == l:
        return []
    rows = sym_elim(bordered)
    if rows is None:
        raise InternalError("a residual of star enumeration is not positive semidefinite")
    pivots = [(rows[k][k], rows[k]) for k in range(l)]
    fit = []
    for c in range(l, len(rows[0])):
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
                fit.append(c - l)
    return fit


def _search_space(lattice: Lattice):
    """The search's Gram, sorted alphabet, lead blocks and mapped-back vectors.

    Returns (g, alphabet, begin, mapped): g is the Gram in the search's
    coordinates (see the module docstring), alphabet the vectors u of the
    box with g - u u^T PSD in descending order, alphabet[begin[p]:begin[p + 1]]
    the vectors with lead position p, and mapped[k] alphabet[k] in the
    lattice's basis, in canonical form.
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
    # Every box vector is within g's diagonal caps.
    fit = _fitting([row + [u[a] for u in box] for a, row in enumerate(g)])
    alphabet = sorted((box[j] for j in fit), reverse=True)
    leads = [next(k for k, x in enumerate(u) if x != 0) for u in alphabet]
    begin = [bisect_left(leads, p) for p in range(l + 1)]
    # Pairing order[a] in the lattice's basis is signs[a] times pairing a in the
    # search's; each alphabet vector is mapped back, sign-normalized, once.
    back = sorted(range(l), key=order.__getitem__)
    mapped = [canonical_pairings([[signs[a] * u[a] for a in back]])[0] for u in alphabet]
    return g, alphabet, begin, mapped


def enumerate_stars(lattice: Lattice, *, max_n: int | None = None) -> list[EutacticStar]:
    """All stars with sum_j u_j u_j^T = gram, complete and deterministic.

    One representative per reorder/sign-flip orbit, in canonical form.  The
    keyword-only max_n raises InputError when the search reaches a nonzero
    residual with max_n vectors chosen, whether or not that branch can still
    reach a zero residual; branches the lead-position cut removes are never
    entered and do not count.  The search runs in sorted, sign-normalized
    coordinates and expands each (residual, least index) node once (see the
    module docstring): a node with a unit pivot takes its one child by an
    alphabet lookup, a node with no candidate is dead at once, and only the
    others run an elimination.  The stars come back in the lattice's basis.
    An alphabet that lacks a unit-pivot row is an InternalError.
    """
    g, alphabet, begin, mapped = _search_space(lattice)
    l = lattice.rank
    # A residual is its upper triangle, read row by row: row a is
    # residual[cuts[a]], its columns a..l-1.  sym_elim reads no entry left of
    # the diagonal, so the bordered row a is pads[a] + residual[cuts[a]] + the
    # candidates' entries a.
    pairs = [(a, b) for a in range(l) for b in range(a, l)]
    diag = [pairs.index((a, a)) for a in range(l)]
    cuts = [slice(d, d + l - a) for a, d in enumerate(diag)]
    pads = [(0,) * a for a in range(l)]
    outer = [tuple(u[a] * u[b] for a, b in pairs) for u in alphabet]
    index = {u: k for k, u in enumerate(alphabet)}
    # residual + (lo,) -> (height, live).  height is the depth of the deepest
    # nonzero residual below the node, itself at 0.  live holds (k, the
    # child's live) for each child alphabet[k] that reaches a zero residual,
    # with None for the zero residual itself; a dead node's is (), and dead
    # nodes of one height share their entry.
    table: dict = {}
    dead: dict = {}
    # (lo, caps) -> (ks, cols): ks the k in [lo, hi) with every
    # |alphabet[k][a]| <= caps[a], cols[a] their entries a.  hi is
    # begin[first + 1], and first is the first nonzero cap.
    candidates: dict = {}

    def visit(residual: tuple, start: int, depth: int, first: int):
        """The entry of residual reached by alphabet[start], made on first
        visit; the diagonal of residual is zero before first."""
        # A PSD residual with a zero diagonal entry has a zero row there.
        while first < l and not residual[diag[first]]:
            first += 1
        if first == l:
            return None
        lo, hi = max(start, begin[first]), begin[first + 1]
        key = residual + (lo,)
        node = table.get(key)
        if node is not None:
            if max_n is not None and depth + node[0] >= max_n:
                raise InputError(f"enumeration exceeded max_n={max_n}")
            return node
        if max_n is not None and depth >= max_n:
            raise InputError(f"enumeration exceeded max_n={max_n}")
        if residual[diag[first]] == 1:
            # A unit pivot: the one vector that fits is the residual's row first.
            k = index.get(pads[first] + residual[cuts[first]])
            if k is None:
                raise InternalError("a unit-pivot row of star enumeration is not "
                                    "in the alphabet")
            fits = [k] if k >= lo else []
        else:
            caps = tuple(map(math.isqrt, map(residual.__getitem__, diag)))
            cand = candidates.get((lo, caps))
            if cand is None:
                ks = [k for k in range(lo, hi) if all(map(le, map(abs, alphabet[k]), caps))]
                cand = candidates[lo, caps] = (
                    ks, [tuple([alphabet[k][a] for k in ks]) for a in range(l)])
            ks, cols = cand
            fits = []
            if ks:
                rows = [pad + residual[cut] + col for pad, cut, col in zip(pads, cuts, cols)]
                fits = [ks[c] for c in _fitting(rows)]
        height, live = 0, []
        for k in fits:
            child = visit(tuple(map(sub, residual, outer[k])), k, depth + 1, first)
            if child is None:
                live.append((k, None))
            else:
                height = max(height, child[0] + 1)
                if child[1]:
                    live.append((k, child[1]))
        node = table[key] = ((height, tuple(live)) if live
                             else dead.setdefault(height, (height, ())))
        return node

    try:
        root = visit(tuple(g[a][b] for a, b in pairs), 0, 0, 0)
    finally:
        # visit refers to itself, so without this the table would outlive the
        # call until the cycle collector runs; the live entries stay reachable.
        table.clear()
        candidates.clear()
    found: list[tuple[tuple[int, ...], ...]] = []

    def emit(live: tuple | None, chosen: list) -> None:
        if live is None:
            found.append(tuple(sorted(chosen, reverse=True)))
            return
        for k, below in live:
            chosen.append(mapped[k])
            emit(below, chosen)
            chosen.pop()

    emit(root[1], [])  # a Gram is positive definite, so root is a node
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
