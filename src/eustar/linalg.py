"""Small exact linear algebra, every elimination in int: what the rest of the package needs.

There is one elimination, the fraction-free symmetric kernel ``sym_elim``,
which also carries right-hand-side columns through the same steps.
``invert`` is read off it; its rows also complete the square of a positive
definite form in int, which is how ``eustar.certify`` enumerates lattice
points.  A rational matrix reaches it through ``clear_denominators``, the one
place that scales to int by the lcm of the denominators; ``invert`` returns
one integer matrix over one denominator.  No other reduction is kept: the
coset representatives of ``eustar.certify`` are read off such an inverse.
``InputError`` lives here, in the module that imports no other, so that
``clear_denominators`` can raise it; ``eustar.lattice`` re-exports it.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence, Tuple

Vec = Tuple[Q, ...]
Mat = Tuple[Vec, ...]
IntMat = Tuple[Tuple[int, ...], ...]


class InputError(ValueError):
    """Malformed or out-of-contract input (maps to CLI exit code 2)."""


def clear_denominators(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(ints, den) with rows = ints / den, den the lcm of the entries' denominators;
    a float, complex or bool entry is an InputError, as no verdict may rest on one."""
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], 1
    for x in (x for row in rows for x in row if type(x) not in (Q, int)):
        if isinstance(x, (bool, float, complex)):
            raise InputError(f"{type(x).__name__} entry {x!r} is not an exact rational")
    rows = [[x if type(x) is Q else Q(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def sym_elim(m: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Fraction-free symmetric elimination of an integer [A | B]; None iff A is not PSD.

    Bareiss's integer-preserving elimination (Math. Comp. 22, 1968) with the
    diagonal pivots taken in order, on the upper triangle only.  Row k of the
    result holds, in the columns j >= k, row k as it stood when it was the
    pivot row: with S the earlier nonzero pivots, r[k][j] = det m[S+k, S+j],
    which is det m[S, S] times the Schur complement entry, so each division
    is exact (Sylvester's identity).  While no pivot has been 0, r[k][k] is
    the leading (k+1)x(k+1) minor.  A symmetric matrix is PSD iff every
    pivot is >= 0 and every zero pivot has a zero row; such a pivot is skipped.

    Rows longer than n carry the columns past the n x n block A, a right-hand
    side B, through the same steps: Bareiss on [A | B], whose row i reads
    sum_{j>=i} r[i][j] x_j = r[i][n+c] for every solution of A x = B[:, c].
    """
    rows = [list(row) for row in m]
    n = len(rows)
    width = len(rows[0]) if rows else 0
    prev = 1
    for k in range(n):
        piv = rows[k]
        p = piv[k]
        if p <= 0:
            if p < 0 or any(piv[k + 1:n]):
                return None
            continue
        for i in range(k + 1, n):
            row, a = rows[i], piv[i]
            for j in range(i, width):
                row[j] = (p * row[j] - a * piv[j]) // prev
        prev = p
    return rows


def invert(a: Sequence[Sequence]) -> tuple[IntMat, int] | None:
    """(X, d) with a^-1 = X / d in lowest terms (d > 0), or None unless the
    symmetric matrix a is positive definite.

    With a = A / den, sym_elim([A | den 1]) leaves det A as the last pivot
    and an upper triangular system for den A^-1 = a^-1.  Its solution times
    det A is integral (Cramer), so back substitution divides exactly; the
    gcd of det A and that solution is then divided out.
    """
    n = len(a)
    ints, den = clear_denominators(a)
    # sym_elim reads the upper triangle only, so an asymmetric a would be
    # inverted as a different matrix.
    if any(len(row) != n for row in ints) or \
            any(ints[i][j] != ints[j][i] for i in range(n) for j in range(i)):
        raise ValueError("invert expects a symmetric matrix")
    r = sym_elim([row + [den * (i == j) for j in range(n)] for i, row in enumerate(ints)])
    if r is None or any(r[i][i] == 0 for i in range(n)):
        return None
    det = r[n - 1][n - 1] if n else 1
    x: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = r[i]
        x[i] = [(det * row[n + c] - sum(row[j] * x[j][c] for j in range(i + 1, n))) // row[i]
                for c in range(n)]
    g = math.gcd(det, *(v for row in x for v in row))
    return tuple(tuple(v // g for v in row) for row in x), det // g
