"""Star construction, eutaxy, embedding, support sets."""

import json
import random
from fractions import Fraction as Q

import pytest

from eustar.certify import deficiency
from eustar.lattice import InputError, Lattice
from eustar.rootsys import build_star, catalog, recognize
from eustar.star import (EutacticStar, divisor_multiplicity, dump_star, embed,
                         is_eutactic, load_star, star_from_json_dict,
                         star_from_pairings, support_set)

from conftest import rational_point


def test_construction_validation():
    lat = Lattice([[2, 1], [1, 2]])
    with pytest.raises(InputError):
        EutacticStar(lat, [])
    with pytest.raises(InputError):
        EutacticStar(lat, [(0, 0)])
    with pytest.raises(InputError):
        EutacticStar(lat, [(1, 0, 0)])
    with pytest.raises(InputError, match="vector 1"):
        EutacticStar(lat, [(1, 0), (Q(1, 2), 0)])


def test_pairings_are_integer_tuples(a2_star):
    assert a2_star.pairings == ((0, 1), (1, 0), (1, 1))
    for u in a2_star.pairings:
        assert all(isinstance(x, int) for x in u)


def test_is_eutactic(a2_star, two_vector_star):
    assert is_eutactic(a2_star)
    assert is_eutactic(two_vector_star)
    # Dropping a vector breaks the decomposition.
    partial = EutacticStar(a2_star.lattice, a2_star.vectors[:-1])
    assert not is_eutactic(partial)
    single = EutacticStar(Lattice([[2]]), [(Q(1, 2),)])
    assert not is_eutactic(single)


def test_embed_resolves_the_form(a2_star, b2_star, g2_star):
    # The defining identity: the embedding into Z^N preserves norms.
    rng = random.Random(11)
    for star in (a2_star, b2_star, g2_star):
        for _ in range(20):
            x = tuple(rng.randrange(-5, 6) for _ in range(star.lattice.rank))
            image = embed(star, x)
            assert sum(c * c for c in image) == star.lattice.inner(x, x)


def test_embed_values(a2_star):
    assert embed(a2_star, (1, 0)) == (0, 1, 1)
    assert embed(a2_star, (0, 1)) == (1, 0, 1)


def test_divisor_multiplicity(a2_star, two_vector_star):
    for s in a2_star.vectors:
        assert divisor_multiplicity(a2_star, s) == 1
        assert divisor_multiplicity(a2_star, tuple(-x for x in s)) == 1
    assert divisor_multiplicity(two_vector_star, (Q(1, 2),)) == 2
    assert divisor_multiplicity(two_vector_star, (-3,)) == 2
    assert divisor_multiplicity(a2_star, (1, -1)) == 0
    with pytest.raises(InputError):
        divisor_multiplicity(a2_star, (0, 0))


def test_support_set(a2_star, two_vector_star):
    support, repeats = support_set(a2_star)
    assert len(support) == 6
    assert support == sorted(support)
    assert repeats == []
    support, repeats = support_set(two_vector_star)
    assert support == [(Q(-1, 2),), (Q(1, 2),)]
    assert repeats == [((Q(1, 2),), 2)]


def test_star_from_pairings(a2_star):
    rebuilt = star_from_pairings(a2_star.lattice, a2_star.pairings)
    assert rebuilt.vectors == a2_star.vectors


def test_json_round_trip(tmp_path, g2_star):
    data = json.loads(dump_star(g2_star))
    again = star_from_json_dict(data)
    assert again.vectors == g2_star.vectors
    assert again.lattice == g2_star.lattice
    path = tmp_path / "star.json"
    path.write_text(dump_star(g2_star))
    assert load_star(str(path)).vectors == g2_star.vectors


def test_json_errors():
    with pytest.raises(InputError):
        star_from_json_dict({"gram": [[1]]})
    with pytest.raises(InputError):
        star_from_json_dict({"gram": [[1]], "vectors": "x"})


def test_rational_point_helper_shape():
    rng = random.Random(0)
    p = rational_point(rng, 3)
    assert len(p) == 3 and all(isinstance(x, Q) for x in p)


@pytest.mark.parametrize("call", [
    lambda: deficiency(build_star(catalog("A2")), (Q(1, 3),)),
    lambda: divisor_multiplicity(build_star(catalog("A2")), (1,)),
    lambda: recognize([(1, 0, 0), (-1, 0, 0)], Lattice([[2]])),
    lambda: recognize([(1,), (-1,)], Lattice([[2, 1], [1, 2]])),
], ids=["deficiency", "divisor_multiplicity", "recognize_long", "recognize_short"])
def test_wrong_length_vectors_rejected(call):
    # zip would truncate a long vector and indexing would fail on a short one.
    with pytest.raises(InputError, match="length"):
        call()
