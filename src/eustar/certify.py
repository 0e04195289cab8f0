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
    rank pass, then exchanges while one lowers |det U_I|; 1 for root stars).
    One exact integer exchange pivot makes both, and carries U_I^-1 = V / v,
    v = |det U_I|, through each row taken in O(l^2), so no inverse is formed;
  * k_I runs over |det U_I| representatives of Z^l / U_I Z^l, keyed by
    V k mod v: k and k' share a class iff U_I^-1 (k - k') is integral.  Each
    class of k mod U Z^l has exactly one k with k_I there, and which
    representative is taken does not matter, as q and the witness are
    class invariants;
  * with k_I fixed, q is the positive definite form A = P_JJ on the other
    N - l coordinates, centred at U_J U_I^-1 (k_I + h_I) - h_J, with no
    constant term (the Schur complement of A in P is 0, as P has rank N - l);
    Fincke-Pohst enumeration (Cohen, GTM 138, Alg. 2.7.5) lists every k_J
    with q <= radius.

The enumeration runs in int: with G^-1 = gi / g and the centre num / (2v),
g (2v)^2 q is an integer form in k_J, walked by ``linalg._close_points`` on
the Bareiss rows of sym_elim(g A), exactly, by math.isqrt and floor division.
Leaves compare as (scaled q, witness numerators over 2g); Fraction appears
only in the returned minimum and witness, which ``deficiency`` re-evaluates.

The radius is (N - l)/12 first, twice the threshold (N - l)/24: if some class
lies within it, the minimum and every tie for the least witness are among the
classes listed, so min and witness are those of any larger radius.  Only if
no class lies within it, which makes the star extremal with min above the
threshold, is the search repeated at the mean bound N/12, which some k always
meets.  ``cells_examined`` is the number of classes listed at the radius
actually used, #{k mod U Z^l : q(k) <= radius}.  It is a property of the star
alone: it does not depend on the basis, the order of the vectors or their
signs.  ``min_deficiency`` takes the radius as an argument too; at N/12 it
lists the same classes as the mean-bound search alone.

A caller that needs only the verdict of a non-extremal star uses
``certify_if_extremal``.  It first evaluates f at the least squares point of
the class k = 0, G^-1 rho with rho = sum_j u_j / 2, a minimizer for the
catalog's root stars; below the threshold, that point refutes the star before
any set-up.  Otherwise it stops at the first class with q < (N - l)/12, whose
point has deficiency below the threshold, which ``deficiency`` re-checks;
without one it completes the minimum and witness in the same pass, so an
extremal star is searched once.  No floats are consulted anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .lattice import InputError, InternalError, format_rational, format_vector
from .linalg import Vec, _close_points, clear_denominators, sym_elim
from .star import EutacticStar, is_eutactic


def deficiency(star: EutacticStar, x: Sequence) -> Q:
    """sum_j B(u_j . x), evaluated exactly.

    x is cleared once to X / D; with t = u_j . X an integer and r = t mod D,
    B(t / D) = (2 r - D)^2 / (8 D^2), so the sum is one integer over 8 D^2.
    """
    x = tuple(x)
    if len(x) != star.lattice.rank:
        raise InputError(f"deficiency: x has length {len(x)}, "
                         f"expected {star.lattice.rank}")
    (X,), D = clear_denominators([x])
    return Q(sum((2 * (sum(map(mul, u, X)) % D) - D) ** 2 for u in star.pairings),
             8 * D * D)


@dataclass
class ExtremalityCertificate:
    is_extremal: bool
    min_value: Q
    threshold: Q
    witness: Vec
    cells_examined: int  # classes k mod U Z^l with q(k) <= the radius used

    def to_json_dict(self) -> dict:
        return {"extremal": self.is_extremal,
                "min": format_rational(self.min_value),
                "threshold": format_rational(self.threshold),
                "witness": format_vector(self.witness)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _pick_rows(U: Sequence[Sequence[int]], l: int) -> tuple[list[int], list[list[int]], int]:
    """Sorted indices I of l rows of U with U_I nonsingular and |det U_I| small,
    and (V, v) with U_I^-1 = V / v and v = |det U_I|.

    One exact exchange pivot (Gauss-Jordan in int; Edmonds, J. Res. NBS 71B,
    1967) keeps V / d = B^-1 and d = +-det B for a basis B of Q^l whose rows
    are rows of U and unit vectors, starting from B = 1.  For a row u_j,
    t = u_j V is d times its coordinates in B, so putting u_j in place c of B
    scales det B by t_c / d.  The greedy pass puts each row in the first place
    still held by a unit vector with t_c != 0, which exists iff the row is
    independent of those taken, so it takes the first l independent rows; the
    exchanges then swap in the row that lowers |det U_I| most, while one does.
    """
    V, d = [[int(a == b) for b in range(l)] for a in range(l)], 1
    rows: list[int | None] = [None] * l  # rows[c]: the row of U in place c of B, None for e_c
    entered: list[int] = []  # the places of B, in the order their rows entered

    def pivot(j: int, c: int, t: list[int]) -> None:
        # u_j into place c: each row x of V becomes (t_c x - x_c t) / d outside
        # column c, exactly, as V stays +-adj B (Cramer's rule); d becomes t_c.
        nonlocal V, d
        V = [[x if b == c else (t[c] * x - row[c] * s) // d
              for b, (x, s) in enumerate(zip(row, t))] for row in V]
        rows[c], d = j, t[c]

    def coords(j: int) -> list[int]:
        return [sum(map(mul, U[j], col)) for col in zip(*V)]

    for j in range(len(U)):
        if len(entered) == l:
            break
        t = coords(j)
        c = next((c for c in range(l) if rows[c] is None and t[c]), None)
        if c is not None:
            entered.append(c)
            pivot(j, c, t)
    if len(entered) < l:
        raise InternalError("the pairing rows do not span Q^l")
    while True:
        best = None  # (|t_c|, j, c, t): first (j, place in order of entry) at the least
        for j in range(len(U)):
            if j not in rows:
                t = coords(j)
                for c in entered:
                    if 0 < abs(t[c]) < abs(d) and (best is None or abs(t[c]) < best[0]):
                        best = (abs(t[c]), j, c, t)
        if best is None:
            break
        pivot(*best[1:])
    # Sorting the rows of U_I permutes the columns of its inverse; v = |d|.
    order, s = sorted(range(l), key=rows.__getitem__), -1 if d < 0 else 1
    return [rows[a] for a in order], [[s * row[a] for a in order] for row in V], abs(d)


def _classes(V: Sequence[Sequence[int]], v: int) -> list[tuple[int, ...]]:
    """One k from each class of Z^l / U_I Z^l, for U_I^-1 = V / v.

    k and k' share a class iff V (k - k') = 0 mod v.  A breadth-first search
    from k = 0 adds unit vectors, which generate Z^l, keyed by V k mod v.
    """
    cols = list(zip(*V))  # V e_i
    zero = (0,) * len(V)
    classes = {zero: zero}  # V k mod v -> k
    queue = [(zero, zero)]
    for key, k in queue:
        for i, col in enumerate(cols):
            nxt = tuple([(a + b) % v for a, b in zip(key, col)])
            if nxt not in classes:
                classes[nxt] = step = k[:i] + (k[i] + 1,) + k[i + 1:]
                queue.append((nxt, step))
    return list(classes.values())


def _search(star: EutacticStar, radius: Q | None,
            stop_below: Q | None = None) -> tuple[Q, Vec, int]:
    """The minimum search of ``min_deficiency``; see the module docstring.

    radius None is the threshold-first radius (N - l)/12.  With stop_below,
    the search ends at the first class with q/2 below it and returns its
    least squares point, with the deficiency there (at most q/2) and the
    number of classes listed up to it; the class k = 0 is tried first, and
    counts as none listed.
    """
    if not is_eutactic(star):
        raise InputError("min_deficiency requires a eutactic star")
    U = star.pairings
    N, l = star.size, star.lattice.rank
    if radius is None:
        radius = Q(N - l, 12)
    elif isinstance(radius, bool) or not isinstance(radius, (int, Q)):
        raise InputError(f"the search radius {radius!r} is not an int or Fraction")
    radius = Q(radius)
    if radius < 0:
        raise InputError(f"the search radius {radius} is negative")
    gi, g = star.lattice.dual_gram()  # G^-1 = gi / g
    if stop_below is not None:
        # The class k = 0 first, before any set-up: its least squares point
        # G^-1 U^T h = G^-1 rho, with rho = sum_j u_j / 2, is a minimizer for
        # the catalog's root stars, and it refutes most stars that are not
        # extremal (41,909 of the 65,755 on the B4 weight lattice).
        rho = [sum(col) for col in zip(*U)]
        x = tuple(Q(sum(map(mul, row, rho)) % (2 * g), 2 * g) for row in gi)
        value = deficiency(star, x)
        if value < stop_below:
            return value, x, 0

    I, V, v = _pick_rows(U, l)  # U_I^-1 = V / v
    J = [j for j in range(N) if j not in I]
    W = [[sum(map(mul, row, u)) for row in gi] for u in U]  # W_j = gi u_j
    # g P_JJ = g 1 - U_J gi U_J^T
    r = sym_elim([[g * (a == b) - sum(map(mul, U[ja], W[jb])) for b, jb in enumerate(J)]
                  for a, ja in enumerate(J)])
    if r is None or any(r[i][i] == 0 for i in range(len(J))):
        raise InternalError("P restricted to the coordinates J is not positive definite")
    C = [[sum(map(mul, U[j], col)) for col in zip(*V)] for j in J]  # U_J V
    # The centre is num / (2v), so q(k) = (2v k_J - num)^T (g P_JJ) (2v k_J - num)
    # / scale, and q <= radius iff the integer numerator is <= radius scale.
    scale = g * (2 * v) ** 2
    # f = q / 2 < stop_below iff the integer numerator is < 2 stop_below scale.
    below = 0 if stop_below is None else -(-2 * stop_below.numerator * scale
                                           // stop_below.denominator)
    reps = _classes(V, v)
    # x = G^-1 U^T (k + h) = sum_j (2 k_j + 1) W_j / (2g) with W_j = gi u_j; the
    # witness is x mod 1, kept as numerators over 2g.  W_I is summed once per
    # k_I, and W_J is kept by columns.
    W_J = [[W[j][c] for j in J] for c in range(l)]

    def scan(bound: int) -> tuple[tuple[int, tuple[int, ...]] | None, int]:
        best = None
        leaves = 0
        for res in reps:
            z_I = [2 * x + 1 for x in res]
            num = [sum(map(mul, row, z_I)) - v for row in C]
            base = [sum(W[i][c] * zi for i, zi in zip(I, z_I)) for c in range(l)]
            for k_J, q in _close_points(r, 2 * v, num, bound):
                leaves += 1
                if best is not None and q > best[0]:
                    continue
                z_J = [2 * x + 1 for x in k_J]
                wit = tuple((x + sum(map(mul, col, z_J))) % (2 * g)
                            for x, col in zip(base, W_J))
                if q < below:
                    return (q, wit), leaves
                if best is None or (q, wit) < best:
                    best = (q, wit)
        return best, leaves

    # The mean bound N/12 holds a point for every star.
    for rad in (radius, Q(N, 12)):
        best, leaves = scan(rad.numerator * scale // rad.denominator)
        if best is not None:
            break
    else:
        raise InternalError("no shadow-coset point within the mean bound N/12")
    value, wit = Q(best[0], 2 * scale), tuple(Q(x, 2 * g) for x in best[1])
    if not 0 <= value <= Q(N, 24):
        raise InternalError(f"minimum {value} outside [0, N/24]")
    attained = deficiency(star, wit)
    if best[0] < below:
        # The least squares point of any k has f <= q/2, with equality when k
        # is optimal for it; a stop need not be at the minimum.
        if attained > value:
            raise InternalError(f"point {format_vector(wit)} exceeds {value}")
        return attained, wit, leaves
    if attained != value:
        raise InternalError(f"witness {format_vector(wit)} does not attain {value}")
    return value, wit, leaves


def min_deficiency(star: EutacticStar, radius: Q | None = None) -> tuple[Q, Vec, int]:
    """Exact global minimum of the deficiency, a minimizing point in [0,1)^l,
    and the number of shadow-coset classes examined (see the module docstring).

    The classes listed are those with q = |P(k + h)|^2 <= radius, by default
    (N - l)/12; if none lies there the search is repeated at N/12.  Requires
    eutaxy; ties between minimizers break to the lexicographically smallest
    witness after reduction mod 1, so the result is deterministic and does
    not depend on the radius.
    """
    return _search(star, radius)


def certify_extremal(star: EutacticStar) -> ExtremalityCertificate:
    """Exact extremality verdict: min deficiency vs (N - rank)/24."""
    value, witness, examined = min_deficiency(star)
    threshold = Q(star.size - star.lattice.rank, 24)
    return ExtremalityCertificate(is_extremal=value >= threshold,
                                  min_value=value,
                                  threshold=threshold,
                                  witness=witness,
                                  cells_examined=examined)


def certify_if_extremal(star: EutacticStar) -> ExtremalityCertificate | None:
    """The certificate of ``certify_extremal`` for an extremal star; None for
    a star that is not extremal.

    One pass over the classes with q <= (N - l)/12: the first class with
    q/2 below the threshold ends it, and ``deficiency`` re-checks that its
    least squares point lies below the threshold too; without one the pass
    completes the minimum and witness.
    """
    threshold = Q(star.size - star.lattice.rank, 24)
    value, witness, examined = _search(star, None, stop_below=threshold)
    if value < threshold:
        return None
    return ExtremalityCertificate(is_extremal=True, min_value=value, threshold=threshold,
                                  witness=witness, cells_examined=examined)
