"""Small exact linear algebra over Fraction: just what the rest of the package needs."""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence, Tuple

Vec = Tuple[Q, ...]
Mat = Tuple[Vec, ...]


def qvec(entries: Sequence) -> Vec:
    return tuple(Q(e) for e in entries)


def qmat(rows: Sequence[Sequence]) -> Mat:
    return tuple(qvec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def dot(u: Sequence, v: Sequence) -> Q:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Sequence[Sequence]) -> Mat:
    return tuple(tuple(Q(m[i][j]) for i in range(len(m))) for j in range(len(m[0])))


def _elim(rows: list) -> tuple[list, list]:
    """Row-reduce in place; return (reduced rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Sequence[Sequence]) -> Mat:
    rows = [[Q(x) for x in row] for row in m]
    rows, _ = _elim(rows)
    return tuple(tuple(row) for row in rows)


def rank(m: Sequence[Sequence]) -> int:
    if not m:
        return 0
    rows = [[Q(x) for x in row] for row in m]
    _, pivots = _elim(rows)
    return len(pivots)


def solve(a: Sequence[Sequence], b: Sequence) -> Vec | None:
    """Unique solution of a x = b for square a, or None if a is singular."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve expects a square system")
    rows = [[Q(x) for x in row] + [Q(b[i])] for i, row in enumerate(a)]
    rows, pivots = _elim(rows)
    if pivots != list(range(n)):
        return None
    return tuple(rows[i][n] for i in range(n))


def invert(a: Sequence[Sequence]) -> Mat | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    rows = [[Q(x) for x in row] + [Q(1) if j == i else Q(0) for j in range(n)]
            for i, row in enumerate(a)]
    rows, pivots = _elim(rows)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def nullspace(m: Sequence[Sequence], ncols: int) -> Mat:
    """Basis of {x : m x = 0} as a tuple of vectors (empty tuple for trivial kernel)."""
    if not m:
        return identity(ncols)
    rows = [[Q(x) for x in row] for row in m]
    rows, pivots = _elim(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def det(m: Sequence[Sequence]) -> Q:
    n = len(m)
    rows = [[Q(x) for x in row] for row in m]
    out = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        inv = Q(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def ldl(a: Sequence[Sequence]) -> tuple[Vec, Mat] | None:
    """Upper LDL^T of a symmetric matrix, or None if it is not positive definite.

    Returns (d, m) with m unit upper triangular (stored as full rows) such that
    x^T a x = sum_i d[i] * (x_i + sum_{j>i} m[i][j] x_j)^2; every d[i] is > 0.
    This is the square completion of Fincke-Pohst (Cohen, GTM 138, Alg. 2.7.6).
    """
    n = len(a)
    q = [[Q(x) for x in row] for row in a]
    for i in range(n):
        if q[i][i] <= 0:
            return None
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for j in range(k, n):
                q[k][j] -= q[k][i] * q[i][j]
    d = tuple(q[i][i] for i in range(n))
    m = tuple(tuple(Q(1) if j == i else q[i][j] if j > i else Q(0) for j in range(n))
              for i in range(n))
    return d, m


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
