"""Exact linear algebra helpers."""

import math
import random
from fractions import Fraction as Q
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eustar import linalg
from eustar.linalg import clear_denominators, invert, sym_elim

from conftest import as_fractions


def det(m):
    """Leibniz determinant: a reference that shares no code with eustar.linalg."""
    n = len(m)
    out = Q(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        out += (-1) ** inversions * math.prod(Q(m[i][p[i]]) for i in range(n))
    return out


def dot(u, v):
    return sum(map(mul, u, v))


def mat_mul(a, b):
    return tuple(tuple(sum((Q(x) * y for x, y in zip(row, col)), Q(0)) for col in zip(*b))
                 for row in a)


def transpose(m):
    return tuple(zip(*m))


def identity(n):
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def gauss_jordan_rank(m):
    """Rank by Gauss-Jordan elimination over Fraction: a reference that shares
    no code with eustar.linalg."""
    rows = [[Q(x) for x in row] for row in m]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def gauss_jordan_inverse(m):
    """Inverse of a square matrix by Gauss-Jordan elimination over Fraction, or
    None if it is singular: a reference that shares no code with eustar.linalg."""
    n = len(m)
    rows = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def test_invert():
    a = [[2, 1], [1, 2]]
    inv = as_fractions(invert(a))
    assert mat_mul(a, inv) == identity(2)
    assert invert([[1, 1], [1, 1]]) is None  # semidefinite
    assert invert([[1, 2], [2, 1]]) is None  # indefinite
    assert as_fractions(invert([[Q(1, 2), Q(1, 3)], [Q(1, 3), 1]])) == gauss_jordan_inverse(
        [[Q(1, 2), Q(1, 3)], [Q(1, 3), 1]])
    assert invert(()) == ((), 1)
    with pytest.raises(ValueError):
        invert([[2, 1], [0, 2]])  # not symmetric


def test_det():
    # On a PSD matrix the last nonzero-row pivot of sym_elim is the determinant.
    assert sym_elim([[2, 1], [1, 2]])[-1][-1] == 3
    assert sym_elim([[1, 2], [2, 4]])[-1][-1] == 0
    assert sym_elim([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[-1][-1] == 1


def _is_psd(m):
    """Every principal minor is >= 0 (the definition, via the Leibniz reference)."""
    n = len(m)
    return all(det([[m[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, n + 1) for idx in combinations(range(n), size))


def test_sym_elim_decides_psd():
    rng = random.Random(3)
    cases = [[[0, 1], [1, 0]],  # zero pivot followed by a nonzero row
             [[0, 0, 0], [0, 1, 2], [0, 2, 4]],  # zero pivot and zero row, singular PSD
             [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # zero pivot after elimination, nonzero row
             [[1, 1], [1, 1]], [[1, 2], [2, 1]], [[-1]], [[0]], []]
    for _ in range(300):
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:  # B^T B with few rows: often singular PSD
            b = [[rng.randrange(-2, 3) for _ in range(n)]
                 for _ in range(rng.randrange(n + 1))]
            cases.append([[sum(r[i] * r[j] for r in b) for j in range(n)]
                          for i in range(n)])
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randrange(-2, 4)
            cases.append(a)
    for m in cases:
        assert (sym_elim(m) is not None) == _is_psd(m), m
    assert sym_elim([[0, 1], [1, 0]]) is None
    assert sym_elim([[0, 0, 0], [0, 1, 2], [0, 2, 4]]) is not None
    assert sym_elim([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) is None


def test_sym_elim_pivots_are_leading_minors():
    rng = random.Random(9)
    seen = 0
    while seen < 50:
        n = rng.randrange(1, 5)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n + 2)]
        a = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        if det(a) == 0:
            continue
        seen += 1
        before = [row[:] for row in a]
        r = sym_elim(a)
        assert [r[k][k] for k in range(n)] == [det([row[:k + 1] for row in a[:k + 1]])
                                               for k in range(n)]
        assert a == before


def test_random_inverse_consistency():
    rng = random.Random(7)
    singular = 0
    for _ in range(60):
        n = rng.randrange(1, 5)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(n + 2))]
        a = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]  # B^T B
        inv = invert(a)
        if det(a) == 0:
            singular += 1
            assert inv is None
        else:
            inv = as_fractions(inv)
            assert inv == gauss_jordan_inverse(a)
            assert mat_mul(a, inv) == identity(n)
    assert singular >= 10
    assert invert([[2, 3, 0], [3, 2, 0], [0, 0, 1]]) is None  # indefinite, det -5


@st.composite
def symmetric_rationals(draw):
    """A symmetric rational matrix, n <= 5: half of them B^T B + c 1, so that
    positive definite, singular and indefinite cases all come up."""
    n = draw(st.integers(1, 5))
    q = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))
    if draw(st.booleans()):
        b = [[draw(q) for _ in range(n)] for _ in range(draw(st.integers(0, n + 1)))]
        c = draw(st.sampled_from((0, 0, 1, Q(1, 2), -1)))
        return [[sum((r[i] * r[j] for r in b), Q(0)) + c * (i == j) for j in range(n)]
                for i in range(n)]
    a = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(q)
    return a


@settings(max_examples=200, deadline=None)
@given(symmetric_rationals())
def test_invert_matches_gauss_jordan(a):
    n = len(a)
    # Sylvester's criterion, on the Leibniz reference determinant.
    definite = all(det([row[:k] for row in a[:k]]) > 0 for k in range(1, n + 1))
    inv = invert(a)
    assert (inv is None) == (not definite)
    if inv is None:
        return
    x, d = inv
    assert d > 0 and math.gcd(d, *(v for row in x for v in row)) == 1
    assert all(type(v) is int for row in x for v in row)
    assert as_fractions(inv) == gauss_jordan_inverse(a)
    assert mat_mul(a, x) == tuple(tuple(d * v for v in row) for row in identity(n))


def test_sym_elim_carries_columns():
    rng = random.Random(21)
    full = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:  # B^T B: PSD, singular when B has few rows
            b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(n + 2))]
            a = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randrange(-2, 4)
        # Extra columns leave the square block and the PSD verdict alone.
        extra = rng.randrange(1, 4)
        square = sym_elim(a)
        wide = sym_elim([row + [rng.randrange(-5, 6) for _ in range(extra)] for row in a])
        assert (wide is None) == (square is None), a
        if square is not None:
            assert [row[:n] for row in wide] == square
        if det(a) == 0 or square is None:
            continue
        # With [A | 1], the carried columns b satisfy r x = det b for x = det A^-1.
        full += 1
        r = sym_elim([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
        d = r[n - 1][n - 1]
        assert d == det(a)
        x = [[d * v for v in row] for row in gauss_jordan_inverse(a)]
        assert all(v.denominator == 1 for row in x for v in row)
        for i in range(n):
            for c in range(n):
                assert sum(r[i][j] * x[j][c] for j in range(i, n)) == d * r[i][n + c]
    assert full >= 50


def textbook_bareiss(m, n):
    """Bareiss on the whole of [A | B], A the leading n x n block, diagonal
    pivots in order: every row below a pivot is updated, whatever its
    multiplier.  A zero pivot is skipped if its row of A is zero, and None is
    returned otherwise or at a negative pivot."""
    rows = [list(row) for row in m]
    width = len(rows[0]) if rows else 0
    prev = 1
    for k in range(n):
        p = rows[k][k]
        if p <= 0:
            if p < 0 or any(rows[k][k + 1:n]):
                return None
            continue
        for i in range(k + 1, n):
            a = rows[i][k]
            for j in range(k + 1, width):
                rows[i][j] = (p * rows[i][j] - a * rows[k][j]) // prev
        prev = p
    return rows


def sparse_symmetric(rng, n):
    """A random symmetric n x n integer matrix with many zero entries."""
    kind = rng.choice(("diagonal", "blocks", "zero rows", "any"))
    if kind == "diagonal":
        return [[rng.randrange(0, 6) * (i == j) for j in range(n)] for i in range(n)]
    if kind == "any":
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.choice((0, 0, 0, -1, 1, 2, 3))
        return a
    # B^T B, PSD: block-diagonal when each row of B stays in one block of
    # coordinates, with zero rows where a column of B is zero.
    cut = rng.randrange(n + 1)
    blocks = [range(cut), range(cut, n)] if kind == "blocks" else [range(n)]
    zero = set(rng.sample(range(n), rng.randrange(n))) if kind == "zero rows" else set()
    b = []
    for block in blocks:
        for _ in range(rng.randrange(len(block) + 2)):
            b.append([rng.randrange(-2, 3) if j in block and j not in zero else 0
                      for j in range(n)])
    return [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]


def test_sym_elim_matches_textbook_bareiss_on_sparse_matrices():
    # sym_elim updates only the upper triangle; every entry it keeps, on and
    # right of the diagonal and in the carried columns, must equal the
    # textbook elimination's, also where many multipliers are 0.
    rng = random.Random(29)
    sparse = kept = 0
    for _ in range(600):
        n = rng.randrange(1, 7)
        a = sparse_symmetric(rng, n)
        extra = rng.choice((0, 0, 1, 3))
        m = [row + [rng.choice((0, 0, -1, 1, 4)) for _ in range(extra)] for row in a]
        want, got = textbook_bareiss(m, n), sym_elim(m)
        assert (got is None) == (want is None), m
        if got is None:
            continue
        kept += 1
        assert [row[i:] for i, row in enumerate(got)] == \
            [row[i:] for i, row in enumerate(want)], m
        sparse += any(m[k][k] > 0 and m[k][i] == 0 for k in range(n) for i in range(k + 1, n))
    assert kept >= 300 and sparse >= 200


def test_clear_denominators():
    assert clear_denominators([[Q(1, 2), Q(-1, 3)], [2, "3/4"]]) == ([[6, -4], [24, 9]], 12)
    assert clear_denominators([[1, -2]]) == ([[1, -2]], 1)
    assert clear_denominators([]) == ([], 1)


def fraction_clear_denominators(rows):
    """Every entry through Fraction: the reference for clear_denominators."""
    rows = [[Q(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def test_clear_denominators_int_rows_build_no_fraction(monkeypatch):
    rng = random.Random(5)
    for kind in ("int", "mixed", "rational"):
        for _ in range(30):
            rows = [[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))]
                    for _ in range(rng.randrange(1, 4))]
            if kind == "mixed":
                rows[0][0] = Q(rows[0][0])
            elif kind == "rational":
                rows = [[Q(x, rng.randrange(1, 7)) for x in row] for row in rows]
            got = clear_denominators(rows)
            assert got == fraction_clear_denominators(rows)
            assert all(type(x) is int for row in got[0] for x in row)
            assert all(a is not b for a, b in zip(got[0], rows))
    monkeypatch.setattr(linalg, "Q", None)
    assert clear_denominators([[3, -1], [0, 7]]) == ([[3, -1], [0, 7]], 1)


def test_ldl_completes_the_square():
    # The LDL^T square completion eustar.certify enumerates on, read off the
    # Bareiss rows: with (A, den) from clear_denominators and r = sym_elim(A),
    # a positive definite A has
    # x^T A x = sum_i (sum_{j>=i} r[i][j] x_j)^2 / (r[i][i] r[i-1][i-1]).
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 5)
        b = [[Q(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n + 1)]
        a = mat_mul(transpose(b), b)  # positive semidefinite, rational
        A, den = clear_denominators(a)
        assert tuple(tuple(Q(x, den) for x in row) for row in A) == a
        r = sym_elim(A)
        if det(a) == 0:
            assert r is None or any(r[i][i] == 0 for i in range(n))
            continue
        assert all(r[i][i] > 0 for i in range(n))
        x = [rng.randrange(-5, 6) for _ in range(n)]
        form = dot(x, [dot(row, x) for row in A])
        assert form == sum(Q(dot(r[i][i:], x[i:]) ** 2, r[i][i] * (r[i - 1][i - 1] if i else 1))
                           for i in range(n))
    assert sym_elim([[1, 2], [2, 1]]) is None  # indefinite
    assert sym_elim([]) == []
