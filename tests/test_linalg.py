"""Exact linear algebra helpers."""

import math
import random
from fractions import Fraction as Q
from itertools import combinations, permutations, product

import pytest

from eustar.linalg import dot, hnf_diagonal, invert, ldl, qvec, rank, sym_elim


def det(m):
    """Leibniz determinant: a reference that shares no code with eustar.linalg."""
    n = len(m)
    out = Q(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        out += (-1) ** inversions * math.prod(Q(m[i][p[i]]) for i in range(n))
    return out


def mat_mul(a, b):
    return tuple(tuple(sum((Q(x) * y for x, y in zip(row, col)), Q(0)) for col in zip(*b))
                 for row in a)


def transpose(m):
    return tuple(zip(*m))


def identity(n):
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def test_qvec_and_dot():
    v = qvec([1, "1/2", Q(1, 3)])
    assert v == (Q(1), Q(1, 2), Q(1, 3))
    assert dot(v, (6, 6, 6)) == 11
    assert dot((), ()) == 0


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


def test_rank():
    assert rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank(identity(4)) == 4
    assert rank([]) == 0 and rank([[]]) == 0


def test_rank_rational_rows():
    m = [[Q(1, 2), Q(-1, 3), 0], [Q(2, 5), 1, Q(-7, 4)], [Q(1, 6), Q(1, 6), Q(1, 6)]]
    assert rank(m) == gauss_jordan_rank(m) == 3
    m = [[Q(1, 2), Q(1, 3)], [Q(3, 4), Q(1, 2)], [Q(-1, 6), Q(-1, 9)]]  # one line
    assert rank(m) == gauss_jordan_rank(m) == 1


def test_rank_dependent_rows():
    a, b = [Q(1, 3), 2, 0, Q(-5, 2)], [0, Q(1, 7), 1, 1]
    m = [a, b, [x + 2 * y for x, y in zip(a, b)], [Q(3, 2) * x - y for x, y in zip(a, b)]]
    assert rank(m) == gauss_jordan_rank(m) == 2
    assert rank(transpose(m)) == 2


def test_rank_matches_gauss_jordan():
    rng = random.Random(13)
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[Q(rng.randrange(-3, 4), rng.choice((1, 2, 3, 5))) for _ in range(ncols)]
             for _ in range(nrows)]
        for _ in range(rng.randrange(3)):  # append combinations of earlier rows
            u, v = rng.choice(m), rng.choice(m)
            c = Q(rng.randrange(-2, 3), rng.choice((1, 3)))
            m.append([x + c * y for x, y in zip(u, v)])
        assert rank(m) == gauss_jordan_rank(m), m


def test_invert():
    a = [[2, 1], [1, 2]]
    inv = invert(a)
    assert mat_mul(a, inv) == identity(2)
    assert invert([[1, 1], [1, 1]]) is None  # semidefinite
    assert invert([[1, 2], [2, 1]]) is None  # indefinite
    assert invert([[Q(1, 2), Q(1, 3)], [Q(1, 3), 1]]) == gauss_jordan_inverse(
        [[Q(1, 2), Q(1, 3)], [Q(1, 3), 1]])
    assert invert(()) == ()
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
            assert inv == gauss_jordan_inverse(a)
            assert mat_mul(a, inv) == identity(n)
    assert singular >= 10
    assert invert([[2, 3, 0], [3, 2, 0], [0, 0, 1]]) is None  # indefinite, det -5


def test_ldl_completes_the_square():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 5)
        b = [[Q(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n + 1)]
        a = mat_mul(transpose(b), b)  # positive semidefinite, rational
        fact = ldl(a)
        if det(a) == 0:
            assert fact is None
            continue
        d, m = fact
        assert all(x > 0 for x in d)
        assert all(m[i][i] == 1 and all(m[i][j] == 0 for j in range(i))
                   for i in range(n))
        x = [rng.randrange(-5, 6) for _ in range(n)]
        form = dot(x, [dot(row, x) for row in a])
        assert form == sum(d[i] * dot(m[i], x) ** 2 for i in range(n))
    assert ldl([[1, 2], [2, 1]]) is None  # indefinite
    assert ldl(()) == ((), ())


def test_hnf_diagonal():
    assert hnf_diagonal([[2, 0], [0, 3]]) == (2, 3)
    assert hnf_diagonal([[2, 1], [0, 3]]) == (1, 6)
    assert hnf_diagonal([[1, 0], [0, 1]]) == (1, 1)
    assert hnf_diagonal([[-1, 1], [1, 1]]) == (1, 2)
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        d = det(a)
        if d == 0:
            with pytest.raises(ValueError):
                hnf_diagonal(a)
            continue
        h = hnf_diagonal(a)
        assert all(x > 0 for x in h)
        assert abs(d) == math.prod(h)
        if abs(d) > 40:
            continue
        # The box prod range(h_i) holds |det| pairwise inequivalent classes.
        inv = gauss_jordan_inverse(a)
        box = list(product(*(range(x) for x in h)))
        for v, w in combinations(box, 2):
            diff = [x - y for x, y in zip(v, w)]
            assert any(dot(row, diff).denominator != 1 for row in inv)
