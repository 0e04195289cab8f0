"""Shared fixtures: catalog stars, small hand-built stars, the search corpus."""

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
