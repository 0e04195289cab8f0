"""Lattice construction, rational parsing, the dual Gram matrix, JSON."""

import json
import math
import random
from fractions import Fraction as Q

import pytest

from eustar import lattice
from eustar.lattice import (InputError, Lattice, format_rational,
                            format_vector, lattice_from_json_dict, load_lattice,
                            rational_parts)
from eustar.rootsys import build_P_lattice, catalog, catalog_labels

from conftest import as_fractions


def parse_rational(s):
    return Q(*rational_parts(s))


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Q(-7, 2)
    assert parse_rational(" 4/6 ") == Q(2, 3)
    assert parse_rational(5) == 5
    with pytest.raises(InputError):
        parse_rational("abc")
    with pytest.raises(InputError, match="zero denominator"):
        parse_rational("1/0")
    # Only 'p/q' and 'n' in ASCII digits: no decimal point, exponent,
    # underscore, other digits or signed denominator.
    for text in ("1.5", "1e3", "1_0", "\u0661", "1/-2", "1e3000000"):
        with pytest.raises(InputError, match="bad rational"):
            parse_rational(text)
    with pytest.raises(InputError, match="bad rational"):
        parse_rational("1" * 5000)  # more digits than int() converts
    with pytest.raises(InputError):
        parse_rational(None)
    for flag in (True, False):  # bool is an int subclass, but not a rational
        with pytest.raises(InputError):
            parse_rational(flag)


# The strings below that are rationals, with their values.
ACCEPTED = {"3": 3, "-7/2": Q(-7, 2), " 4/6 ": Q(2, 3), "+5": 5, "-0": 0, "0/3": 0,
            "6/4": Q(3, 2), "007/014": Q(1, 2), "\t2/3\n": Q(2, 3)}


@pytest.mark.parametrize("value", [
    "3", "-7/2", " 4/6 ", "+5", "-0", "0/3", "12/-4", "6/4", "007/014", "\t2/3\n", 5, -3, 0,
    "abc", "1/0", "1.5", "1e3", "1_0", "\u0661", "1/-2", "1 /2", "", " ", "/2", "1/",
    "1" * 5000, None, True, False, 1.5, [1], Q(1, 2),
])
def test_rational_parts_accepts_what_parse_rational_accepts(value):
    # Star files are read through rational_parts: an int, or a string among
    # ACCEPTED, comes back as (p, q) with q > 0; anything else is an error.
    if type(value) is int:
        want = value
    elif isinstance(value, str) and value in ACCEPTED:
        want = ACCEPTED[value]
    else:
        with pytest.raises(InputError):
            rational_parts(value)
        return
    p, q = rational_parts(value)
    assert type(p) is int and type(q) is int and q > 0 and Q(p, q) == want


def test_format_rational():
    assert format_rational(Q(1, 2)) == "1/2"
    assert format_rational(Q(-4, 2)) == "-2"
    assert format_rational(Q(0)) == "0"
    assert format_rational(Q(3, 6)) == "1/2"


def test_vector_round_trip():
    v = tuple(parse_rational(x) for x in ["1/3", "-2", "0"])
    assert v == (Q(1, 3), Q(-2), Q(0))
    assert format_vector(v) == ["1/3", "-2", "0"]


def test_lattice_validation():
    with pytest.raises(InputError):
        Lattice([])
    with pytest.raises(InputError):
        Lattice([[1, 2]])
    with pytest.raises(InputError):
        Lattice([[1, 0], [1, 1]])  # not symmetric
    with pytest.raises(InputError):
        Lattice([[0]])  # not positive definite
    with pytest.raises(InputError, match="not positive definite"):
        Lattice([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(InputError, match="not positive definite"):
        Lattice([[1, 1], [1, 1]])  # semidefinite
    with pytest.raises(InputError):
        Lattice([[Q(1, 2)]])  # non-integer entry
    with pytest.raises(InputError):
        Lattice([[True]])


def test_inner_and_dual():
    lat = Lattice([[2, 1], [1, 2]])
    assert lat.rank == 2
    assert as_fractions(lat.dual_gram()) == ((Q(2, 3), Q(-1, 3)), (Q(-1, 3), Q(2, 3)))
    # (1/3, 1/3) is the dual vector that pairs to 1 with both basis vectors.
    gi, g = lat.dual_gram()
    assert tuple(Q(sum(row), g) for row in gi) == (Q(1, 3), Q(1, 3))


def test_lattice_equality_and_repr():
    a = Lattice([[2, 1], [1, 2]])
    b = Lattice([[2, 1], [1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != Lattice([[1, 0], [0, 1]])
    assert repr(a) == "Lattice([[2, 1], [1, 2]])"


def test_json_round_trip(tmp_path):
    lat = Lattice([[4, 1], [1, 4]])
    text = json.dumps(lat.to_json_dict())
    assert lattice_from_json_dict(json.loads(text)) == lat
    path = tmp_path / "lat.json"
    path.write_text(text)
    assert load_lattice(str(path)) == lat


def test_json_errors(tmp_path):
    with pytest.raises(InputError):
        lattice_from_json_dict({"vectors": []})
    with pytest.raises(InputError):
        lattice_from_json_dict({"gram": "nope"})
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError):
        load_lattice(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_lattice(str(bad))


def test_dual_gram_inverse_check(monkeypatch):
    # The inversion at construction is the positive-definiteness test.
    monkeypatch.setattr(lattice, "invert", lambda m: None)
    with pytest.raises(InputError, match="not positive definite"):
        Lattice([[2, 1], [1, 2]])


def test_dual_gram_under_unimodular_change_of_basis():
    # Lattice(B^T G B) has dual Gram B^-1 G^-1 B^-T.  B and B^-1 are built
    # together from elementary operations, so no inverse is computed here.
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(1, 5)
        c = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        g = [[sum(r[i] * r[j] for r in c) + (i == j) for j in range(n)] for i in range(n)]
        b = [[int(i == j) for j in range(n)] for i in range(n)]
        b_inv = [row[:] for row in b]
        for _ in range(rng.randrange(6) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            f = rng.choice((1, -1, 2, -2))
            for row in b:  # B <- B (I + f e_ij)
                row[j] += f * row[i]
            b_inv[i] = [x - f * y for x, y in zip(b_inv[i], b_inv[j])]
        if rng.random() < 0.5:
            k = rng.randrange(n)  # a sign flip of one basis vector
            for row in b:
                row[k] = -row[k]
            b_inv[k] = [-x for x in b_inv[k]]
        moved = [[sum(b[p][i] * g[p][q] * b[q][j] for p in range(n) for q in range(n))
                  for j in range(n)] for i in range(n)]
        d = as_fractions(Lattice(g).dual_gram())
        expect = tuple(tuple(sum(b_inv[i][p] * d[p][q] * b_inv[j][q]
                                 for p in range(n) for q in range(n))
                             for j in range(n)) for i in range(n))
        assert as_fractions(Lattice(moved).dual_gram()) == expect


def test_dual_gram_on_catalog_lattices():
    # gi G = g 1 with gcd(g, gi) = 1: gi / g is G^-1 in lowest terms.
    labels = catalog_labels()
    assert len(labels) == 31
    for label in labels:
        lat = build_P_lattice(catalog(label))
        gi, g = lat.dual_gram()
        n = lat.rank
        assert g > 0 and math.gcd(g, *(x for row in gi for x in row)) == 1, label
        assert [[sum(gi[i][k] * lat.gram[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[g * (i == j) for j in range(n)] for i in range(n)]
        assert lat.dual_gram() is lat.dual_gram()  # computed once, at construction
