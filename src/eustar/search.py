"""Complete enumeration of eutactic stars on a lattice, and the theorem check.

A star's pairing vectors u_j decompose the Gram matrix as sum_j u_j u_j^T, so
enumerating stars means enumerating such rank-one decompositions.  Vectors are
chosen sign-normalized (first nonzero entry positive) in non-increasing
lexicographic order, which makes the backtracking emit exactly one canonical
representative per orbit under reordering and per-vector sign flips; the
residual must stay positive semidefinite with non-negative diagonal at every
step, which bounds entries by isqrt(gram_ii) and the length by the trace.  The
PSD test is the integer Bareiss elimination ``linalg.sym_elim``, O(l^3) per
residual.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

from .certify import certify_extremal
from .lattice import InputError, Lattice, format_vector
from .linalg import qvec, rank, sym_elim
from .rootsys import recognize
from .star import EutacticStar, star_from_pairings, support_set


def canonical_pairings(pairings: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a pairing multiset: sign-normalized rows, sorted descending."""
    normed = []
    for u in pairings:
        u = tuple(int(x) for x in u)
        lead = next((x for x in u if x != 0), 0)
        normed.append(u if lead > 0 else tuple(-x for x in u))
    return tuple(sorted(normed, reverse=True))


def enumerate_stars(lattice: Lattice, canonical_dedup: bool = True,
                    max_n: int | None = None) -> list[EutacticStar]:
    """All stars with sum_j u_j u_j^T = gram, complete and deterministic.

    With canonical_dedup, one representative per reorder/sign-flip orbit;
    without it, every distinct multiset of pairing vectors (sign variants
    expanded).  max_n aborts enumeration once any branch needs more vectors.
    """
    g = lattice.gram
    l = lattice.rank
    bound = [math.isqrt(g[i][i]) for i in range(l)]
    alphabet = []
    for u in product(*(range(-b, b + 1) for b in bound)):
        lead = next((x for x in u if x != 0), 0)
        if lead <= 0:
            continue
        resid = [[g[i][j] - u[i] * u[j] for j in range(l)] for i in range(l)]
        if all(resid[i][i] >= 0 for i in range(l)) and sym_elim(resid) is not None:
            alphabet.append(u)
    alphabet.sort(reverse=True)

    found: list[tuple[tuple[int, ...], ...]] = []

    def backtrack(start: int, residual: list[list[int]], chosen: list) -> None:
        if all(x == 0 for row in residual for x in row):
            found.append(tuple(chosen))
            return
        if max_n is not None and len(chosen) >= max_n:
            raise InputError(f"enumeration exceeded max_n={max_n}")
        for i in range(start, len(alphabet)):
            u = alphabet[i]
            nxt = [[residual[a][b] - u[a] * u[b] for b in range(l)] for a in range(l)]
            if any(nxt[a][a] < 0 for a in range(l)):
                continue
            if sym_elim(nxt) is None:
                continue
            chosen.append(u)
            backtrack(i, nxt, chosen)
            chosen.pop()

    backtrack(0, g, [])

    if not canonical_dedup:
        expanded = set()
        for rep in found:
            for signs in product((1, -1), repeat=len(rep)):
                star = tuple(sorted(tuple(s * x for x in u)
                                    for s, u in zip(signs, rep)))
                expanded.add(star)
        found = sorted(expanded, reverse=True)

    return [star_from_pairings(lattice, rep) for rep in found]


def verify_theorem(lattice: Lattice) -> dict:
    """Certify every star on the lattice; recognize the support of extremal ones.

    A counterexample would be an extremal star whose support set fails root
    system recognition or does not span the whole lattice; the report lists
    them (expected: never).
    """
    stars = enumerate_stars(lattice)
    extremal = []
    counterexamples = []
    for star in stars:
        cert = certify_extremal(star)
        if not cert.is_extremal:
            continue
        support, _ = support_set(star)
        report = recognize(support, lattice)
        span_ok = rank([qvec(v) for v in support]) == lattice.rank
        entry = {
            "pairings": [list(u) for u in star.pairings],
            "vectors": [format_vector(v) for v in star.vectors],
            "certificate": cert.to_json_dict(),
            "types": report.label,
            "rank_match": span_ok,
        }
        if report.ok and span_ok:
            extremal.append(entry)
        else:
            entry["reason"] = ("recognition failed: " + str(report.failure)
                               if not report.ok else "support does not span")
            counterexamples.append(entry)
    return {"stars": len(stars), "extremal": extremal,
            "counterexamples": counterexamples}
