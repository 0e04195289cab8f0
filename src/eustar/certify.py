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
  * k_I runs over the |det U_I| representatives of Z^l / U_I Z^l, read off the
    Hermite normal form diagonal; each class has exactly one k with k_I there;
  * with k_I fixed, q is the positive definite form A = P_JJ on the other
    N - l coordinates, centred at U_J U_I^-1 (k_I + h_I) - h_J, with no
    constant term (the Schur complement of A in P is 0, as P has rank N - l);
    Fincke-Pohst enumeration over an exact LDL^T of A lists every k_J with
    q <= N/12, the mean bound, which some k always meets.

The radius stays N/12 throughout, so the number of leaves,
#{k mod U Z^l : q(k) <= N/12}, is a property of the star alone: it does not
depend on the basis, the order of the vectors or their signs.  It is reported
as ``cells_examined``.  All arithmetic is over Fraction and int; no floats are
consulted anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product
from typing import Iterator, Sequence

from .lattice import InputError, InternalError, format_rational, format_vector
from .linalg import Vec, hnf_diagonal, invert, ldl, qvec, rank
from .star import EutacticStar, is_eutactic


def b_eval(x) -> Q:
    """B(x) = (y - 1/2)^2 / 2 with y = x mod 1 in [0,1)."""
    x = Q(x)
    y = x - math.floor(x)
    return (y - Q(1, 2)) ** 2 / 2


def deficiency(star: EutacticStar, x: Sequence) -> Q:
    """sum_j B(u_j . x), evaluated exactly."""
    x = qvec(x)
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


def _pick_rows(U: Sequence[Sequence[int]], l: int) -> list[int]:
    """Indices of l rows of U with U_I nonsingular and |det U_I| small."""
    rows: list[int] = []
    for j in range(len(U)):
        if len(rows) == l:
            break
        if rank([U[i] for i in rows] + [U[j]]) > len(rows):
            rows.append(j)
    while True:
        inv = invert([U[i] for i in rows])
        # Swapping row a of U_I for row j scales det U_I by (U_j U_I^-1)_a.
        best = None
        for j in range(len(U)):
            if j in rows:
                continue
            for a in range(l):
                c = abs(sum(U[j][b] * inv[b][a] for b in range(l)))
                if 0 < c < 1 and (best is None or c < best[0]):
                    best = (c, a, j)
        if best is None:
            return sorted(rows)
        rows[best[1]] = best[2]


def _close_points(d: Vec, m: Sequence[Vec], center: Sequence[Q],
                  bound: Q) -> Iterator[tuple[tuple[int, ...], Q]]:
    """Every integer k with q(k) <= bound, with q(k), where
    q(k) = sum_i d[i] * (y_i + sum_{j>i} m[i][j] y_j)^2 and y = k - center."""
    n = len(d)
    k = [0] * n
    y = [Q(0)] * n

    def walk(i: int, budget: Q):
        if i < 0:
            yield tuple(k), bound - budget
            return
        c = center[i] - sum((m[i][j] * y[j] for j in range(i + 1, n)), Q(0))
        # Integers t with d_i (t - c)^2 <= budget form an interval; s bounds its
        # half-width from above (s + 1 > sqrt(budget / d_i)), then exact checks trim it.
        s = math.isqrt(math.floor(budget / d[i]))
        lo, hi = math.floor(c) - s, math.ceil(c) + s
        while lo <= hi and d[i] * (lo - c) ** 2 > budget:
            lo += 1
        while hi >= lo and d[i] * (hi - c) ** 2 > budget:
            hi -= 1
        for t in range(lo, hi + 1):
            k[i] = t
            y[i] = t - center[i]
            yield from walk(i - 1, budget - d[i] * (t - c) ** 2)

    yield from walk(n - 1, bound)


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
    half = Q(1, 2)
    ginv = star.lattice.dual_gram()

    I = _pick_rows(U, l)
    J = [j for j in range(N) if j not in I]
    g_uJ = [[sum(ginv[a][b] * U[j][b] for b in range(l)) for a in range(l)] for j in J]
    A = [[int(a == b) - sum(U[J[a]][c] * g_uJ[b][c] for c in range(l))
          for b in range(len(J))] for a in range(len(J))]
    factor = ldl(A)
    if factor is None:
        raise InternalError("P restricted to the coordinates J is not positive definite")
    d, m = factor
    inv_I = invert([U[i] for i in I])
    C = [[sum(U[j][c] * inv_I[c][b] for c in range(l)) for b in range(l)] for j in J]

    best: tuple[Q, Vec] | None = None
    leaves = 0
    for r in product(*(range(h) for h in hnf_diagonal([U[i] for i in I]))):
        z_I = [ri + half for ri in r]
        center = [sum((row[b] * z_I[b] for b in range(l)), Q(0)) - half for row in C]
        for k_J, q in _close_points(d, m, center, Q(N, 12)):
            leaves += 1
            if best is not None and q > best[0]:
                continue
            k = [0] * N
            for i, ki in zip(I, r):
                k[i] = ki
            for j, kj in zip(J, k_J):
                k[j] = kj
            # x = G^-1 U^T (k + h); U^T (2k + 1) is integral.
            ut = [sum(U[j][a] * (2 * k[j] + 1) for j in range(N)) for a in range(l)]
            x = [sum(ginv[a][b] * ut[b] for b in range(l)) / 2 for a in range(l)]
            wit = tuple(xa - math.floor(xa) for xa in x)
            if best is None or (q, wit) < best:
                best = (q, wit)

    if best is None:
        raise InternalError("no shadow-coset point within the mean bound N/12")
    value, wit = best[0] / 2, best[1]
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
