"""Shared fixtures: catalog stars, small hand-built stars, the search corpus."""

import math
from collections import Counter
from fractions import Fraction as Q

import pytest

from eustar.lattice import Lattice
from eustar.rootsys import build_star, catalog
from eustar.star import star_from_vectors

# Grams small enough that full star enumeration stays quick.
CORPUS_GRAMS = [
    [[1]],
    [[2]],
    [[3]],
    [[1, 0], [0, 1]],
    [[2, 1], [1, 2]],
    [[2, 0], [0, 2]],
    [[4, 1], [1, 4]],
]


def as_fractions(inverse):
    """The matrix X / d for an inverse returned as (X, d)."""
    x, d = inverse
    return tuple(tuple(Q(v, d) for v in row) for row in x)


def rational_point(rng, dim):
    """A random rational point with denominator up to 24, spanning a few periods."""
    den = rng.randrange(1, 25)
    return tuple(Q(rng.randrange(-2 * den, 2 * den + 1), den) for _ in range(dim))


def random_unimodular(rng, l, steps=4):
    """(P, P^-1) for P a random signed permutation times up to `steps`
    elementary matrices I + c e_ij, c = +-1."""
    perm = list(range(l))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(l)]
    P = [[signs[j] if i == perm[j] else 0 for j in range(l)] for i in range(l)]
    P_inv = [list(col) for col in zip(*P)]  # P^-1 = P^T for a signed permutation
    for _ in range(rng.randrange(steps + 1) if l > 1 else 0):
        i, j = rng.sample(range(l), 2)
        c = rng.choice((1, -1))
        for row in P:  # P <- P (I + c e_ij)
            row[j] += c * row[i]
        # P^-1 <- (I - c e_ij) P^-1
        P_inv[i] = [x - c * y for x, y in zip(P_inv[i], P_inv[j])]
    return P, P_inv


def change_basis(gram, vectors, P, P_inv):
    """(P^T G P, [P^-1 v]): the same vectors and form in the basis of P's columns."""
    l = len(gram)
    moved = [[sum(P[a][i] * gram[a][b] * P[b][j] for a in range(l) for b in range(l))
              for j in range(l)] for i in range(l)]
    return moved, [tuple(sum(P_inv[i][a] * v[a] for a in range(l)) for i in range(l))
                   for v in vectors]


def support_set(star):
    """The set {+-s_j} of the star's Fraction vectors, sorted, plus a report
    of repeated family members: (vector, multiplicity) for each exact repeat.
    An antipodal pair s, -s is two distinct members and is not a repeat."""
    vectors = star.vectors
    support = set(vectors) | {tuple(-x for x in v) for v in vectors}
    repeats = sorted((v, c) for v, c in Counter(vectors).items() if c > 1)
    return sorted(support), repeats


def support_star(gram, S):
    """A star whose support is the rational S = -S: its family is S, on the
    lattice d G, for d the lcm of the denominators of the pairings G s.
    Scaling the form keeps recognition's verdict, witness, simple roots and
    Cartan matrices."""
    l = len(gram)
    d = math.lcm(*(Q(sum(gram[i][j] * s[j] for j in range(l))).denominator
                   for s in S for i in range(l)))
    return star_from_vectors(Lattice([[d * x for x in row] for row in gram]), S)


@pytest.fixture
def a1_star():
    return build_star(catalog("A1"))


@pytest.fixture
def a2_star():
    return build_star(catalog("A2"))


@pytest.fixture
def b2_star():
    return build_star(catalog("B2"))


@pytest.fixture
def g2_star():
    return build_star(catalog("G2"))


@pytest.fixture
def two_vector_star():
    # Two copies of 1/2 on the [[2]] lattice: eutactic but not extremal.
    return star_from_vectors(Lattice([[2]]), [(Q(1, 2),), (Q(1, 2),)])


@pytest.fixture
def i2():
    return Lattice([[1, 0], [0, 1]])
