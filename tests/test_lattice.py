"""Lattice construction, rational parsing, dual and shadow membership."""

import json
from fractions import Fraction as Q

import pytest

from eustar import lattice
from eustar.lattice import (InputError, InternalError, Lattice, dump_lattice,
                            format_rational, format_vector, lattice_from_json_dict,
                            load_lattice, parse_rational, parse_vector)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Q(-7, 2)
    assert parse_rational(" 4/6 ") == Q(2, 3)
    assert parse_rational(5) == 5
    with pytest.raises(InputError):
        parse_rational("abc")
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational(None)
    for flag in (True, False):  # bool is an int subclass, but not a rational
        with pytest.raises(InputError):
            parse_rational(flag)


def test_format_rational():
    assert format_rational(Q(1, 2)) == "1/2"
    assert format_rational(Q(-4, 2)) == "-2"
    assert format_rational(Q(0)) == "0"
    assert format_rational(Q(3, 6)) == "1/2"


def test_vector_round_trip():
    v = parse_vector(["1/3", "-2", "0"])
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
    assert lat.inner((1, 0), (1, 0)) == 2
    assert lat.inner((1, 0), (0, 1)) == 1
    assert lat.dual_gram() == ((Q(2, 3), Q(-1, 3)), (Q(-1, 3), Q(2, 3)))
    assert lat.pairings((Q(1, 3), Q(1, 3))) == (1, 1)
    assert lat.is_in_dual((Q(1, 3), Q(1, 3)))
    assert not lat.is_in_dual((Q(1, 2), Q(0)))


def test_shadow_even_lattice_equals_dual():
    lat = Lattice([[2, 1], [1, 2]])
    for v in [(Q(1, 3), Q(1, 3)), (Q(2, 3), Q(-1, 3)), (1, 0)]:
        assert lat.is_in_shadow(v) == lat.is_in_dual(v)


def test_shadow_odd_lattice():
    # On Z with x.y = xy the shadow is Z + 1/2, a coset of the dual.
    lat = Lattice([[1]])
    assert lat.is_in_dual((0,))
    assert not lat.is_in_shadow((0,))
    assert lat.is_in_shadow((Q(1, 2),))
    assert lat.is_in_shadow((Q(-3, 2),))
    assert not lat.is_in_shadow((Q(1, 3),))


def test_lattice_equality_and_repr():
    a = Lattice([[2, 1], [1, 2]])
    b = Lattice([[2, 1], [1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != Lattice([[1, 0], [0, 1]])
    assert repr(a) == "Lattice([[2, 1], [1, 2]])"


def test_json_round_trip(tmp_path):
    lat = Lattice([[4, 1], [1, 4]])
    text = dump_lattice(lat)
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
    monkeypatch.setattr(lattice, "invert", lambda m: None)
    with pytest.raises(InternalError):
        Lattice([[2, 1], [1, 2]]).dual_gram()
