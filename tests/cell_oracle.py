"""The arrangement-cell certifier, kept as an independent differential oracle.

This is the package's original extremality certifier, moved here verbatim when
``eustar.certify`` switched to the coset-minimum enumeration.  It shares no
search code with that method: it enumerates flats and slabs of the hyperplane
arrangement u_j . x in Z instead of shadow-coset points.  Its description:

The deficiency of a point x is f(x) = sum_j B(u_j . x), where u_j are the
star's pairing vectors and B(t) = (frac(t) - 1/2)^2 / 2.  The star is extremal
iff the global minimum of f is at least (N - rank)/24.  B has period-average
1/24, so the minimum never exceeds N/24.

f is Z^l-periodic and piecewise quadratic, smooth away from the hyperplanes
u_j . x in Z.  Take a global minimizer x* in [0,1]^l, let F be the affine flat
cut out by its active hyperplanes (with integer levels), and let m_j be the
floor of u_j . x* for each term that is non-constant on F.  Near x* on F, f
equals a quadratic with Hessian equal to the Gram matrix restricted to F's
direction space (positive definite precisely because the star is eutactic),
and x* is that quadratic's unique minimizer over F.  The search below therefore
enumerates every candidate of this shape and takes the least value found:

  * flats: independent subsets S of pairing rows together with integer levels
    reachable inside [0,1]^l (S empty gives the whole space; |S| = rank gives
    isolated points, evaluated directly);
  * per flat, the exact range of each non-constant u_j . x over flat cap [0,1]^l,
    read off the polytope's vertices; integer offsets m_j then run over the
    slabs (m_j, m_j + 1) meeting that range;
  * per offset pattern, one equality-constrained least squares solve (KKT
    system, factored once per subset S); the solution is kept only if its
    pairings satisfy the closed floor conditions, which makes the quadratic's
    value a true value of f.

Every kept candidate evaluates f exactly somewhere, and the minimizer x* is
always among them, so the least candidate is the exact global minimum.  All
arithmetic is over Fraction; no floats are consulted anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from itertools import combinations, product
from typing import Sequence

from eustar.certify import b_eval, deficiency
from eustar.lattice import InputError
from eustar.linalg import Vec, invert, nullspace, qvec, rank, rref, solve
from eustar.star import EutacticStar, is_eutactic


def _int_levels(lo: Q, hi: Q) -> range:
    """Integers k with lo <= k <= hi."""
    return range(math.ceil(lo), math.floor(hi) + 1)


def _int_slabs(lo: Q, hi: Q) -> range:
    """Integers m whose open slab (m, m+1) meets [lo, hi]."""
    return range(math.floor(lo - 1) + 1, math.ceil(hi))


def min_deficiency(star: EutacticStar) -> tuple[Q, Vec, int]:
    """Exact global minimum of the deficiency, a minimizing point in [0,1)^l,
    and the number of candidates examined.

    Requires eutaxy; ties between minimizers break to the lexicographically
    smallest witness after reduction mod 1, so the result is deterministic.
    """
    if not is_eutactic(star):
        raise InputError("min_deficiency requires a eutactic star")
    U = star.pairings
    N, l = star.size, star.lattice.rank
    half = Q(1, 2)

    def udot(u: tuple[int, ...], x: Sequence[Q]) -> Q:
        return sum((c * xi for c, xi in zip(u, x)), Q(0))

    corners = [tuple(Q(b) for b in bits) for bits in product((0, 1), repeat=l)]
    box_lo = [Q(sum(c for c in u if c < 0)) for u in U]
    box_hi = [Q(sum(c for c in u if c > 0)) for u in U]

    best: tuple[Q, Vec] | None = None
    examined = 0
    seen_flats: set = set()

    def offer(value: Q, point: Sequence[Q]) -> None:
        nonlocal best
        wit = tuple(x - math.floor(x) for x in point)
        if best is None or (value, wit) < best:
            best = (value, wit)

    for r in range(l + 1):
        for S in combinations(range(N), r):
            rows = [qvec(U[j]) for j in S]
            if rank(rows) != r:
                continue
            V = nullspace(rows, l)  # direction space of the flat
            nonconst = [j for j in range(N)
                        if j not in S and any(udot(U[j], v) != 0 for v in V)]
            const = [j for j in range(N) if j not in S and j not in nonconst]
            kkt_inv = None
            if r < l:
                h = [[sum(Q(U[j][a] * U[j][b]) for j in nonconst) for b in range(l)]
                     for a in range(l)]
                kkt = [h[a] + [rows[s][a] for s in range(r)] for a in range(l)]
                kkt += [[rows[s][a] for a in range(l)] + [Q(0)] * r for s in range(r)]
                kkt_inv = invert(kkt)
                assert kkt_inv is not None  # Hessian is the Gram on the flat

            for levels in product(*(_int_levels(box_lo[j], box_hi[j]) for j in S)):
                if r == l:
                    p = solve(rows, [Q(k) for k in levels])
                    assert p is not None
                    if all(0 <= x <= 1 for x in p):
                        examined += 1
                        offer(deficiency(star, p), p)
                    continue
                if r > 0:
                    key = rref([list(rows[s]) + [Q(levels[s])] for s in range(r)])
                    if key in seen_flats:
                        continue
                    seen_flats.add(key)

                # Vertices of flat cap [0,1]^l: fix l-r coordinates at 0/1.
                verts = []
                for coords in combinations(range(l), l - r):
                    for bits in product((0, 1), repeat=l - r):
                        sys_rows = [list(rows[s]) for s in range(r)]
                        rhs = [Q(k) for k in levels]
                        for c, b in zip(coords, bits):
                            sys_rows.append([Q(1) if a == c else Q(0) for a in range(l)])
                            rhs.append(Q(b))
                        v = solve(sys_rows, rhs)
                        if v is not None and all(0 <= x <= 1 for x in v):
                            verts.append(v)
                if not verts:
                    continue

                const_sum = sum((b_eval(udot(U[j], verts[0])) for j in const), Q(0)) \
                    + Q(len(S), 8)
                slab_ranges = []
                for j in nonconst:
                    vals = [udot(U[j], v) for v in verts]
                    slab_ranges.append(_int_slabs(min(vals), max(vals)))

                for offsets in product(*slab_ranges):
                    rhs = [sum(Q(U[j][a]) * (offsets[i] + half)
                               for i, j in enumerate(nonconst)) for a in range(l)]
                    rhs += [Q(k) for k in levels]
                    sol = [sum(kkt_inv[a][b] * rhs[b] for b in range(l + r))
                           for a in range(l)]
                    examined += 1
                    ok = True
                    value = const_sum
                    for i, j in enumerate(nonconst):
                        t = udot(U[j], sol)
                        if not offsets[i] <= t <= offsets[i] + 1:
                            ok = False
                            break
                        value += (t - offsets[i] - half) ** 2 / 2
                    if ok:
                        offer(value, sol)

    assert best is not None
    value, wit = best
    assert 0 <= value <= Q(N, 24)  # min never exceeds the period-average
    assert deficiency(star, wit) == value
    return value, wit, examined
