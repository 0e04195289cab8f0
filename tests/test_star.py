"""Star construction, eutaxy, embedding, support sets."""

import json
import random
from fractions import Fraction as Q

import pytest

from eustar.certify import certify_extremal, deficiency
from eustar.lattice import InputError, InternalError, Lattice
from eustar.qseries import check_antisymmetry, reflect_series, theta_block, theta_factor
from eustar.rootsys import build_P_lattice, build_star, cartan_matrix, catalog, recognize
from eustar.search import enumerate_stars
from eustar.star import (divisor_multiplicity, dump_star, embed, is_eutactic,
                         load_star, star_from_json_dict, star_from_pairings,
                         star_from_vectors, support_set)

from conftest import rational_point


def test_construction_validation():
    lat = Lattice([[2, 1], [1, 2]])
    with pytest.raises(InputError):
        star_from_vectors(lat, [])
    with pytest.raises(InputError):
        star_from_vectors(lat, [(0, 0)])
    with pytest.raises(InputError):
        star_from_vectors(lat, [(1, 0, 0)])
    with pytest.raises(InputError, match="vector 1"):
        star_from_vectors(lat, [(1, 0), (Q(1, 2), 0)])


def test_pairings_are_integer_tuples(a2_star):
    assert a2_star.pairings == ((0, 1), (1, 0), (1, 1))
    for u in a2_star.pairings:
        assert all(isinstance(x, int) for x in u)


def test_is_eutactic(a2_star, two_vector_star):
    assert is_eutactic(a2_star)
    assert is_eutactic(two_vector_star)
    # Dropping a vector breaks the decomposition.
    partial = star_from_vectors(a2_star.lattice, a2_star.vectors[:-1])
    assert not is_eutactic(partial)
    single = star_from_vectors(Lattice([[2]]), [(Q(1, 2),)])
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


@pytest.mark.parametrize("label", ["B3", "C3"])
def test_star_from_pairings_matches_constructor(label):
    # The pairings are taken as given; star_from_vectors recomputes them from
    # the derived vectors through Lattice.pairings.
    lattice = build_P_lattice(catalog(label))
    for star in enumerate_stars(lattice):
        built = star_from_pairings(lattice, star.pairings)
        ref = star_from_vectors(lattice, built.vectors)
        assert (built.vectors, built.pairings, built.size) == \
            (ref.vectors, ref.pairings, ref.size)
        assert all(type(x) is int for u in built.pairings for x in u)


def test_star_from_pairings_validation():
    lat = Lattice([[2, 1], [1, 2]])
    for bad in ([], [(1, 0), (0, 0)], [(Q(1, 2), 0)]):
        with pytest.raises(InputError):
            star_from_pairings(lat, bad)
    assert star_from_pairings(lat, [(Q(2), 1)]).pairings == ((2, 1),)


def test_star_from_pairings_broken_inverse_raises_internal_error():
    lat = Lattice([[2, 1], [1, 2]])
    gi, g = lat.dual_gram()
    lat._dual_gram = (((gi[0][0] + 1, gi[0][1]), gi[1]), g)
    star = star_from_pairings(lat, [(1, 0)])
    with pytest.raises(InternalError):
        star.vectors


def test_vectors_derived_only_when_read():
    # Enumeration, eutaxy, the certificate and the theta block read only the
    # pairings, so no star pays for its Fraction vectors unless they are read.
    stars = enumerate_stars(build_P_lattice(catalog("B3")))
    for star in stars:
        assert is_eutactic(star)
        certify_extremal(star)
        theta_block(star, n24_max=24)
    assert not any("vectors" in star.__dict__ for star in stars)
    assert stars[0].vectors is stars[0].vectors
    assert "vectors" in stars[0].__dict__


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
    lambda: theta_factor(build_star(catalog("A2")), 0).norm_of((1,)),
    lambda: Lattice([[2, 1], [1, 2]]).pairings((1,)),
    lambda: Lattice([[2, 1], [1, 2]]).inner((1, 0), (1,)),
    lambda: Lattice([[2, 1], [1, 2]]).inner((1,), (1, 0)),
    lambda: reflect_series(theta_factor(build_star(catalog("A2")), 0, 60), (1,)),
    lambda: check_antisymmetry(theta_factor(build_star(catalog("A2")), 0, 60), (1, 0, 0)),
    lambda: cartan_matrix([(1, 0), (1,)], Lattice([[2, 1], [1, 2]])),
    lambda: embed(build_star(catalog("A2")), (1,)),
    lambda: star_from_pairings(Lattice([[2, 1], [1, 2]]), [(1, 0, 0)]),
    lambda: star_from_pairings(Lattice([[2, 1], [1, 2]]), [(1, 1), (1,)]),
], ids=["deficiency", "divisor_multiplicity", "recognize_long", "recognize_short",
        "norm_of", "pairings", "inner_y", "inner_x", "reflect_series",
        "check_antisymmetry", "cartan_matrix", "embed", "star_from_pairings_long",
        "star_from_pairings_short"])
def test_wrong_length_vectors_rejected(call):
    # zip would truncate a long vector and indexing would fail on a short one.
    with pytest.raises(InputError, match="length"):
        call()
