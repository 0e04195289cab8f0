"""Exact linear algebra helpers."""

import math
import random
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from eustar.linalg import (det, dot, hnf_diagonal, identity, invert, ldl, mat_mul,
                           mat_vec, nullspace, qmat, qvec, rank, rref, solve,
                           transpose)


def test_qvec_and_dot():
    v = qvec([1, "1/2", Q(1, 3)])
    assert v == (Q(1), Q(1, 2), Q(1, 3))
    assert dot(v, (6, 6, 6)) == 11
    assert dot((), ()) == 0


def test_rref_and_rank():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank(m) == 2
    r = rref(m)
    assert r[0] == (1, 0, -1)
    assert r[1] == (0, 1, 2)
    assert all(x == 0 for x in r[2])
    assert rank(qmat([[0, 0], [0, 0]])) == 0
    assert rank(identity(4)) == 4


def test_solve():
    a = qmat([[2, 1], [1, 3]])
    x = solve(a, (5, 10))
    assert x is not None
    assert mat_vec(a, x) == (5, 10)
    assert solve(qmat([[1, 2], [2, 4]]), (1, 0)) is None


def test_invert():
    a = qmat([[2, 1], [1, 2]])
    inv = invert(a)
    assert mat_mul(a, inv) == identity(2)
    assert invert(qmat([[1, 1], [1, 1]])) is None


def test_det():
    assert det(qmat([[2, 1], [1, 2]])) == 3
    assert det(qmat([[1, 2], [2, 4]])) == 0
    assert det(identity(3)) == 1


def test_nullspace():
    basis = nullspace(qmat([[1, 1, 1]]), 3)
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0
    assert nullspace(qmat([[1, 0], [0, 1]]), 2) == ()


def test_transpose():
    assert transpose(qmat([[1, 2, 3], [4, 5, 6]])) == qmat([[1, 4], [2, 5], [3, 6]])


def test_random_inverse_consistency():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = qmat([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
        inv = invert(a)
        d = det(a)
        if inv is None:
            assert d == 0
        else:
            assert d != 0
            assert mat_mul(a, inv) == identity(n)
            b = qvec([rng.randrange(-9, 10) for _ in range(n)])
            assert solve(a, b) == mat_vec(inv, b)


def test_ldl_completes_the_square():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 5)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n + 1)]
        a = mat_mul(transpose(b), b)  # positive semidefinite
        fact = ldl(a)
        if det(a) == 0:
            assert fact is None
            continue
        d, m = fact
        assert all(x > 0 for x in d)
        assert all(m[i][i] == 1 and all(m[i][j] == 0 for j in range(i))
                   for i in range(n))
        x = [rng.randrange(-5, 6) for _ in range(n)]
        form = dot(x, mat_vec(a, x))
        assert form == sum(d[i] * dot(m[i], x) ** 2 for i in range(n))
    assert ldl(qmat([[1, 2], [2, 1]])) is None  # indefinite
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
        inv = invert(a)
        box = list(product(*(range(x) for x in h)))
        for v, w in combinations(box, 2):
            diff = [x - y for x, y in zip(v, w)]
            assert any(c.denominator != 1 for c in mat_vec(inv, diff))
