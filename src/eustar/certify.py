"""Exact extremality certificates for eutactic stars.

The deficiency of a point x is f(x) = sum_j B(u_j . x), where u_j are the
star's pairing vectors and B(t) = (frac(t) - 1/2)^2 / 2.  The star is extremal
iff the global minimum of f is at least (N - rank)/24.  B has period-average
1/24, so the minimum never exceeds N/24.

B(t) is half the squared distance from t - 1/2 to Z, so with U the N x l
matrix of pairing rows, f(x) = min_k |Ux - (k + h)|^2 / 2 over k in Z^N, where
h = (1/2, ..., 1/2); k + h runs over the shadow coset Z^N + h of Z^N.
Eutaxy says U^T U = G, the Gram matrix, so for fixed k the best x is the least
squares solution x = G^-1 U^T (k + h), which leaves the residual P(k + h), with
P = 1 - U G^-1 U^T the projection onto the orthogonal complement of U R^l:

    min f = min over k in Z^N of |P(k + h)|^2 / 2.

Every minimizer of f is such a least squares point for an optimal k, and every
optimal k gives one, so the witnesses are exactly G^-1 U^T (k + h) mod 1.  The
quadratic q(k) = |P(k + h)|^2 is invariant under k -> k + U m (m in Z^l), and
the search runs over the classes k mod U Z^l:

  * rows I: l pairing rows with U_I nonsingular and |det U_I| small (a greedy
    rank pass, then exchanges while one lowers |det U_I|; 1 for root stars);
    U_I^-1 = V / v is taken as (U_I^T U_I)^-1 U_I^T, so the only inverse
    computed is that of a positive definite Gram matrix;
  * k_I runs over the |det U_I| representatives of Z^l / U_I Z^l, read off the
    Hermite normal form diagonal; each class has exactly one k with k_I there;
  * with k_I fixed, q is the positive definite form A = P_JJ on the other
    N - l coordinates, centred at U_J U_I^-1 (k_I + h_I) - h_J, with no
    constant term (the Schur complement of A in P is 0, as P has rank N - l);
    Fincke-Pohst enumeration (Cohen, GTM 138, Alg. 2.7.5) lists every k_J
    with q <= N/12, the mean bound, which some k always meets.

The enumeration runs in int: with G^-1 = gi / g and the centre num / (2v),
g (2v)^2 q is an integer form in k_J, completed to squares on the Bareiss rows
of sym_elim(g A), with exact interval ends from math.isqrt and floor division.
Leaves compare as (scaled q, witness numerators over 2g); Fraction appears
only in the returned minimum and witness, which ``deficiency`` re-evaluates.

The radius stays N/12 throughout, so the number of leaves,
#{k mod U Z^l : q(k) <= N/12}, is a property of the star alone: it does not
depend on the basis, the order of the vectors or their signs.  It is reported
as ``cells_examined``.  No floats are consulted anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product
from operator import mul
from typing import Iterator, Sequence

from .lattice import InputError, InternalError, format_rational, format_vector
from .linalg import Vec, hnf_diagonal, invert, qvec, rank, sym_elim
from .star import EutacticStar, is_eutactic


def b_eval(x) -> Q:
    """B(x) = (y - 1/2)^2 / 2 with y = x mod 1 in [0,1)."""
    x = Q(x)
    y = x - math.floor(x)
    return (y - Q(1, 2)) ** 2 / 2


def deficiency(star: EutacticStar, x: Sequence) -> Q:
    """sum_j B(u_j . x), evaluated exactly."""
    x = qvec(x)
    if len(x) != star.lattice.rank:
        raise InputError(f"deficiency: x has length {len(x)}, "
                         f"expected {star.lattice.rank}")
    return sum((b_eval(sum(c * xi for c, xi in zip(u, x))) for u in star.pairings), Q(0))


@dataclass
class ExtremalityCertificate:
    is_extremal: bool
    min_value: Q
    threshold: Q
    witness: Vec
    cells_examined: int  # shadow-coset classes k mod U Z^l with q(k) <= N/12

    def to_json_dict(self) -> dict:
        return {"extremal": self.is_extremal,
                "min": format_rational(self.min_value),
                "threshold": format_rational(self.threshold),
                "witness": format_vector(self.witness)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _inverse(u: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(V, v) with U^-1 = V / v = (U^T U)^-1 U^T, for a nonsingular square integer U."""
    l = len(u)
    inv = invert([[sum(r[a] * r[b] for r in u) for b in range(l)] for a in range(l)])
    if inv is None:
        raise InternalError("rows I of the pairing matrix are dependent")
    x, v = inv
    return [[sum(map(mul, x[a], row)) for row in u] for a in range(l)], v


def _pick_rows(U: Sequence[Sequence[int]], l: int) -> tuple[list[int], list[list[int]], int]:
    """Sorted indices I of l rows of U with U_I nonsingular and |det U_I| small,
    and (V, v) with U_I^-1 = V / v."""
    rows: list[int] = []
    for j in range(len(U)):
        if len(rows) == l:
            break
        if rank([U[i] for i in rows] + [U[j]]) > len(rows):
            rows.append(j)
    while True:
        V, v = _inverse([U[i] for i in rows])
        # Swapping row a of U_I for row j scales det U_I by (U_j V)_a / v.
        best = None
        for j in range(len(U)):
            if j in rows:
                continue
            for a in range(l):
                c = abs(sum(U[j][b] * V[b][a] for b in range(l)))
                if 0 < c < v and (best is None or c < best[0]):
                    best = (c, a, j)
        if best is None:
            # Sorting the rows of U_I permutes the columns of its inverse.
            order = sorted(range(l), key=rows.__getitem__)
            return [rows[a] for a in order], [[row[a] for a in order] for row in V], v
        rows[best[1]] = best[2]


def _close_points(r: Sequence[Sequence[int]], den: int, num: Sequence[int],
                  bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every integer k with q(k) <= bound, with q(k), where q(k) = z^T A z for
    z = den k - num, an integer positive definite A and r = sym_elim(A).

    Completing the square on the Bareiss rows gives
    q(k) = sum_i (sum_{j>=i} r[i][j] z_j)^2 / (r[i][i] r[i-1][i-1]).  With L the
    lcm of those denominators, L q(k) = sum_i coef_i (a_i k_i - b_i)^2 where
    a_i = den r[i][i] and b_i = r[i][i] num_i - sum_{j>i} r[i][j] z_j, all int.
    """
    n = len(r)
    dens = [r[i][i] * (r[i - 1][i - 1] if i else 1) for i in range(n)]
    L = math.lcm(*dens)
    coef = [L // x for x in dens]
    k = [0] * n
    z = [0] * n

    def walk(i: int, budget: int):
        if i < 0:
            yield tuple(k), bound - budget // L
            return
        row = r[i]
        a = den * row[i]
        b = row[i] * num[i] - sum(row[j] * z[j] for j in range(i + 1, n))
        # coef_i (a t - b)^2 <= budget iff |a t - b| <= s, as a t - b is an int.
        s = math.isqrt(budget // coef[i])
        for t in range(-((s - b) // a), (b + s) // a + 1):
            k[i] = t
            z[i] = den * t - num[i]
            yield from walk(i - 1, budget - coef[i] * (a * t - b) ** 2)

    yield from walk(n - 1, L * bound)


def min_deficiency(star: EutacticStar) -> tuple[Q, Vec, int]:
    """Exact global minimum of the deficiency, a minimizing point in [0,1)^l,
    and the number of shadow-coset classes examined (see the module docstring).

    Requires eutaxy; ties between minimizers break to the lexicographically
    smallest witness after reduction mod 1, so the result is deterministic.
    """
    if not is_eutactic(star):
        raise InputError("min_deficiency requires a eutactic star")
    U = star.pairings
    N, l = star.size, star.lattice.rank
    gi, g = star.lattice.dual_gram()  # G^-1 = gi / g

    I, V, v = _pick_rows(U, l)  # U_I^-1 = V / v
    J = [j for j in range(N) if j not in I]
    gu = [[sum(map(mul, row, U[j])) for row in gi] for j in J]
    # g P_JJ = g 1 - U_J gi U_J^T
    r = sym_elim([[g * (a == b) - sum(map(mul, U[ja], gu[b])) for b in range(len(J))]
                  for a, ja in enumerate(J)])
    if r is None or any(r[i][i] == 0 for i in range(len(J))):
        raise InternalError("P restricted to the coordinates J is not positive definite")
    C = [[sum(U[j][c] * V[c][b] for c in range(l)) for b in range(l)] for j in J]
    # The centre is num / (2v), so q(k) = (2v k_J - num)^T (g P_JJ) (2v k_J - num)
    # / scale, and q <= N/12 iff the integer numerator is <= N scale / 12.
    scale = g * (2 * v) ** 2

    best: tuple[int, tuple[int, ...]] | None = None
    leaves = 0
    for res in product(*(range(h) for h in hnf_diagonal([U[i] for i in I]))):
        z_I = [2 * x + 1 for x in res]
        num = [sum(map(mul, row, z_I)) - v for row in C]
        for k_J, q in _close_points(r, 2 * v, num, N * scale // 12):
            leaves += 1
            if best is not None and q > best[0]:
                continue
            k = [0] * N
            for i, ki in zip(I, res):
                k[i] = ki
            for j, kj in zip(J, k_J):
                k[j] = kj
            # x = G^-1 U^T (k + h) = gi U^T (2k + 1) / (2g); keep x mod 1 as numerators.
            ut = [sum(U[j][a] * (2 * k[j] + 1) for j in range(N)) for a in range(l)]
            wit = tuple(sum(map(mul, row, ut)) % (2 * g) for row in gi)
            if best is None or (q, wit) < best:
                best = (q, wit)

    if best is None:
        raise InternalError("no shadow-coset point within the mean bound N/12")
    value, wit = Q(best[0], 2 * scale), tuple(Q(x, 2 * g) for x in best[1])
    if not 0 <= value <= Q(N, 24):
        raise InternalError(f"minimum {value} outside [0, N/24]")
    if deficiency(star, wit) != value:
        raise InternalError(f"witness {format_vector(wit)} does not attain {value}")
    return value, wit, leaves


def certify_extremal(star: EutacticStar) -> ExtremalityCertificate:
    """Exact extremality verdict: min deficiency vs (N - rank)/24."""
    value, witness, examined = min_deficiency(star)
    threshold = Q(star.size - star.lattice.rank, 24)
    return ExtremalityCertificate(is_extremal=value >= threshold,
                                  min_value=value,
                                  threshold=threshold,
                                  witness=witness,
                                  cells_examined=examined)
