"""Small exact linear algebra over Fraction and int: what the rest of the package needs.

There is one elimination over Q, the fraction-free symmetric kernel
``sym_elim``.  ``rank`` (of a Gram matrix of the rows), ``ldl`` (the square
completion of a positive definite form) and ``invert`` (through ``ldl``) are
read off it.  ``hnf_diagonal`` is the one other reduction: integer column
operations, for a set of coset representatives.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence, Tuple

Vec = Tuple[Q, ...]
Mat = Tuple[Vec, ...]


def qvec(entries: Sequence) -> Vec:
    return tuple(Q(e) for e in entries)


def dot(u: Sequence, v: Sequence) -> Q:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))


def rank(m: Sequence[Sequence]) -> int:
    """Rank over Q: the number of positive pivots of sym_elim on a Gram matrix.

    The rows are scaled to int by the lcm of their denominators, and the Gram
    matrix of the rows (of the columns, when there are fewer of them) is PSD
    with the same rank as m.  sym_elim takes its pivots greedily, and pivot k
    is positive iff the vector k is independent of the earlier pivots' vectors.
    """
    rows = [[Q(x) for x in row] for row in m]
    if not rows or not rows[0]:
        return 0
    den = math.lcm(*(x.denominator for row in rows for x in row))
    rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    n = len(rows)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(a * b for a, b in zip(rows[i], rows[j]))
    r = sym_elim(gram)
    if r is None:
        raise ArithmeticError("rank: a Gram matrix is not PSD")
    return sum(1 for k in range(n) if r[k][k] > 0)


def sym_elim(m: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Fraction-free symmetric elimination of an integer matrix; None iff m is not PSD.

    Bareiss's integer-preserving elimination (Math. Comp. 22, 1968) with the
    diagonal pivots taken in order, on the upper triangle only.  Row k of the
    result holds, in the columns j >= k, row k as it stood when it was the
    pivot row: with S the earlier nonzero pivots, r[k][j] = det m[S+k, S+j],
    which is det m[S, S] times the Schur complement entry, so each division
    is exact (Sylvester's identity).  While no pivot has been 0, r[k][k] is
    the leading (k+1)x(k+1) minor.  A symmetric matrix is PSD iff every
    pivot is >= 0 and every zero pivot has a zero row; such a pivot is skipped.
    """
    rows = [list(row) for row in m]
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = rows[k]
        p = piv[k]
        if p <= 0:
            if p < 0 or any(piv[k + 1:]):
                return None
            continue
        for i in range(k + 1, n):
            row, a = rows[i], piv[i]
            for j in range(i, n):
                row[j] = (p * row[j] - a * piv[j]) // prev
        prev = p
    return rows


def ldl(a: Sequence[Sequence]) -> tuple[Vec, Mat] | None:
    """Upper LDL^T of a symmetric matrix, or None if it is not positive definite.

    Returns (d, m) with m unit upper triangular (stored as full rows) such that
    x^T a x = sum_i d[i] * (x_i + sum_{j>i} m[i][j] x_j)^2; every d[i] is > 0.
    This is the square completion of Fincke-Pohst (Cohen, GTM 138, Alg. 2.7.6),
    read off sym_elim: with a = A / den for an integer A and r = sym_elim(A),
    d[i] = r[i][i] / (r[i-1][i-1] den) and m[i][j] = r[i][j] / r[i][i].
    """
    q = [[Q(x) for x in row] for row in a]
    n = len(q)
    # sym_elim reads the upper triangle only, so an asymmetric a would be
    # factored as a different matrix.
    if any(len(row) != n for row in q) or \
            any(q[i][j] != q[j][i] for i in range(n) for j in range(i)):
        raise ValueError("ldl expects a symmetric matrix")
    den = math.lcm(*(x.denominator for row in q for x in row))
    r = sym_elim([[int(x * den) for x in row] for row in q])
    if r is None or any(r[i][i] == 0 for i in range(n)):
        return None
    d = tuple(Q(r[i][i], (r[i - 1][i - 1] if i else 1) * den) for i in range(n))
    m = tuple(tuple(Q(1) if j == i else Q(r[i][j], r[i][i]) if j > i else Q(0)
                    for j in range(n)) for i in range(n))
    return d, m


def invert(a: Sequence[Sequence]) -> Mat | None:
    """Inverse of a symmetric matrix, or None if it is not positive definite.

    ldl gives a = m^T diag(d) m with m unit upper triangular, so
    a^-1 = w diag(d)^-1 w^T for w = m^-1, which is unit upper triangular too
    and comes from one back substitution.
    """
    factor = ldl(a)
    if factor is None:
        return None
    d, m = factor
    n = len(d)
    w = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            w[i][j] = -sum((m[i][k] * w[k][j] for k in range(i + 1, j + 1)), Q(0))
    return tuple(tuple(sum((w[i][k] * w[j][k] / d[k] for k in range(max(i, j), n)), Q(0))
                       for j in range(n)) for i in range(n))


def hnf_diagonal(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the lower Hermite normal form of a nonsingular integer matrix.

    Integer column operations make m lower triangular with diagonal h; the
    box prod_i range(h[i]) is then a complete set of representatives of
    Z^n / m Z^n, and prod(h) = |det m|.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    for i in range(n):
        while True:
            live = [j for j in range(i, n) if a[i][j] != 0]
            if not live:
                raise ValueError("hnf_diagonal expects a nonsingular matrix")
            p = min(live, key=lambda j: abs(a[i][j]))
            for row in a:
                row[i], row[p] = row[p], row[i]
            done = True
            for j in range(i + 1, n):
                f = a[i][j] // a[i][i]
                if f:
                    for row in a:
                        row[j] -= f * row[i]
                done = done and a[i][j] == 0
            if done:
                break
    return tuple(abs(a[i][i]) for i in range(n))
