"""Star construction, eutaxy, embedding, support sets."""

import json
import math
import random
from fractions import Fraction as Q
from operator import mul

import pytest

from eustar.certify import certify_extremal, deficiency
from eustar.lattice import InputError, InternalError, Lattice, rational_parts
from eustar.linalg import clear_denominators
from eustar.qseries import check_antisymmetry, reflect_series, theta_block
from eustar.rootsys import build_P_lattice, build_star, catalog, catalog_labels
from eustar.search import enumerate_stars
from eustar.star import (EutacticStar, divisor_multiplicity, dump_star, integer_support,
                         is_eutactic, load_star, star_from_json_dict, star_from_pairings,
                         star_from_vectors)

from conftest import change_basis, random_unimodular, rational_point, support_set
from test_linalg import gauss_jordan_inverse


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


# Constructor inputs on the A2 Gram [[2, 1], [1, 2]], with the pairings or the
# InputError text the generator check `all(type(x) is int for x in u)` gave
# them; the C-level type check must give the same on every row.  The one
# change: bool entries, which that check took as 0 and 1, are an InputError.
CONSTRUCTOR_TABLE = [
    ([(1, 1), (1, 0), (0, 1)], ((1, 1), (1, 0), (0, 1))),
    ([(2, -1), (-3, 4), (1, 0), (1, 0)], ((2, -1), (-3, 4), (1, 0), (1, 0))),
    ([[1, 1], [1, 0], [0, 1]], ((1, 1), (1, 0), (0, 1))),
    (((1, 1), [1, 0], (0, 1)), ((1, 1), (1, 0), (0, 1))),
    ([(True, 0), (0, True)], "vector 0: bool entry True is not an exact rational"),
    ([(True, False), (1, 1)], "vector 0: bool entry True is not an exact rational"),
    ([(Q(2), 1), (0, Q(-1))], ((2, 1), (0, -1))),
    ([(1, 0), (Q(1, 2), 0)], "vector 1: not in the dual lattice (pairings ['1/2', '0'])"),
    ([(Q(1, 3), Q(2, 3))], "vector 0: not in the dual lattice (pairings ['1/3', '2/3'])"),
    ([(1, 0), (0, 1), (1,)], "vector 2: length 1, expected 2"),
    ([(1, 0, 0), (0, 1)], "vector 0: length 3, expected 2"),
    ([(1, 0), (0, 1), (1, 1, 1)], "vector 2: length 3, expected 2"),
    ([(1, 0), (Q(1, 2), 0, 0)], "vector 1: length 3, expected 2"),
    ([(1, 0), (0, 0, 0)], "vector 1: length 3, expected 2"),
    ([(1, 0), (0, 0)], "vector 1: zero vector not allowed"),
    ([(0, 0), (1, 0)], "vector 0: zero vector not allowed"),
    ([(1, 0), (False, 0)], "vector 1: bool entry False is not an exact rational"),
    ([(1, 0), (Q(0), Q(0))], "vector 1: zero vector not allowed"),
    ([(1, 0), (0, 0), (Q(1, 2), 0)], "vector 1: zero vector not allowed"),
    ([], "a star needs at least one vector"),
    ((), "a star needs at least one vector"),
]


@pytest.mark.parametrize("pairings,want", CONSTRUCTOR_TABLE)
def test_constructor_table(pairings, want):
    lat = Lattice([[2, 1], [1, 2]])
    if isinstance(want, str):
        with pytest.raises(InputError) as err:
            EutacticStar(lat, pairings)
        assert str(err.value) == want
        return
    star = EutacticStar(lat, pairings)
    assert (star.pairings, star.size) == (want, len(want))
    assert all(type(u) is tuple for u in star.pairings)
    assert all(type(x) is int for u in star.pairings for x in u)


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


def embed(star, x):
    """((s_1, x), ..., (s_N, x)) = (u_1 . x, ..., u_N . x) for lattice x."""
    return tuple(sum(map(mul, u, x)) for u in star.pairings)


def test_embed_resolves_the_form(a2_star, b2_star, g2_star):
    # The defining identity: the embedding into Z^N preserves norms.
    rng = random.Random(11)
    for star in (a2_star, b2_star, g2_star):
        for _ in range(20):
            x = tuple(rng.randrange(-5, 6) for _ in range(star.lattice.rank))
            norm = sum(a * sum(map(mul, row, x)) for a, row in zip(x, star.lattice.gram))
            assert sum(c * c for c in embed(star, x)) == norm


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


def fraction_support(star):
    """(sorted set of the +-gram^-1 u_j, lcm of their denominators), with the
    inverse computed here in Fraction."""
    inv = gauss_jordan_inverse(star.lattice.gram)
    vectors = {tuple(sum(map(mul, row, u)) for row in inv) for u in star.pairings}
    support = sorted(vectors | {tuple(-x for x in v) for v in vectors})
    return support, math.lcm(*(x.denominator for v in support for x in v))


def test_support_set(a2_star, two_vector_star):
    """integer_support is the Fraction support scaled to int by the
    denominator of gram^-1; a repeated member, which the test helper
    support_set reports, leaves one +-pair."""
    for star in (a2_star, two_vector_star):
        support, den = fraction_support(star)
        ws, g = integer_support(star)
        assert g == star.lattice.dual_gram()[1] and g % den == 0
        assert ws == [tuple(int(x * g) for x in v) for v in support]
        assert support_set(star)[0] == support
    assert integer_support(a2_star) == \
        ([(-2, 1), (-1, -1), (-1, 2), (1, -2), (1, 1), (2, -1)], 3)
    assert integer_support(two_vector_star) == ([(-1,), (1,)], 2)
    assert support_set(two_vector_star) == ([(Q(-1, 2),), (Q(1, 2),)], [((Q(1, 2),), 2)])


@pytest.mark.parametrize("label", catalog_labels())
def test_int_derivation_matches_fraction_inverse(label):
    """In a moved basis, the vectors and the integer support derived in int
    equal gram^-1 u computed here in Fraction, and both the vectors and the
    star's JSON load back to the same pairings.  Two members are repeated,
    and the support holds each once."""
    star = build_star(catalog(label))
    P, P_inv = random_unimodular(random.Random(label), star.lattice.rank)
    gram, _ = change_basis(star.lattice.gram, [], P, P_inv)
    # Pairings are covectors: u' = P^T u.
    pairings = [tuple(sum(P[a][i] * u[a] for a in range(len(u))) for i in range(len(u)))
                for u in star.pairings + star.pairings[:2]]
    moved = star_from_pairings(Lattice(gram), pairings)
    inv = gauss_jordan_inverse(gram)
    expected = tuple(tuple(sum(row[k] * u[k] for k in range(len(u))) for row in inv)
                     for u in pairings)
    assert moved.vectors == expected
    negated = {tuple(-x for x in v) for v in expected}
    ws, g = integer_support(moved)
    assert [tuple(Q(x, g) for x in w) for w in ws] == sorted(set(expected) | negated)
    assert len(ws) == 2 * len(star.pairings)
    assert star_from_vectors(moved.lattice, expected).pairings == moved.pairings
    assert star_from_json_dict(json.loads(dump_star(moved))).pairings == moved.pairings


def test_star_from_pairings(a2_star):
    rebuilt = star_from_pairings(a2_star.lattice, a2_star.pairings)
    assert rebuilt.vectors == a2_star.vectors


@pytest.mark.parametrize("label", ["B3", "C3"])
def test_star_from_pairings_matches_constructor(label):
    # The pairings are taken as given; star_from_vectors recomputes them from
    # the derived vectors.
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


def test_inverse_checked_beyond_the_columns_the_star_uses():
    # The star's only pairing (1, 0) reads column 0 of gi; a wrong entry in
    # column 1 is still a wrong inverse.
    lat = Lattice([[2, 1], [1, 2]])
    gi, g = lat.dual_gram()
    lat._dual_gram = ((gi[0], (gi[1][0], gi[1][1] + 1)), g)
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


def _outcome(build):
    try:
        star = build()
    except InputError as exc:
        return "error", str(exc)
    return star.pairings


@pytest.mark.parametrize("seed", range(40))
def test_json_stars_load_as_through_fractions(seed):
    """star_from_json_dict reads entries as (p, q) and pairs in int; it
    gives the pairings, or the error, of star_from_vectors on the parsed
    Fraction vectors: unreduced and mixed denominators, integer entries,
    vectors off the dual lattice, zero and wrong-length vectors."""
    rng = random.Random(seed)
    star = build_star(catalog(rng.choice(["A2", "B2", "G2", "A3", "B3"])))
    l = star.lattice.rank
    vectors = []
    for v in rng.sample(star.vectors, 3):
        k = rng.randrange(1, 4)
        vectors.append([rng.choice([f"{k * x.numerator}/{k * x.denominator}", str(x)])
                        if x.denominator > 1 or rng.random() < 0.5 else int(x) for x in v])
    damage = rng.randrange(4)
    if damage == 1:
        vectors.append([f"1/{rng.randrange(2, 9)}"] + ["0"] * (l - 1))
    elif damage == 2:
        vectors.append(["0/5"] * l)
    elif damage == 3:
        vectors.insert(1, ["1"] * (l + rng.choice((-1, 1))))
    rng.shuffle(vectors)
    data = {"gram": [list(row) for row in star.lattice.gram], "vectors": vectors}
    parsed = [[Q(*rational_parts(x)) for x in v] for v in vectors]
    want = _outcome(lambda: star_from_vectors(star.lattice, parsed))
    assert _outcome(lambda: star_from_json_dict(data)) == want
    if damage == 0:
        assert all(type(x) is int for u in want for x in u)


_A2, _I2 = [[2, 1], [1, 2]], [[2, 0], [0, 2]]
_Z2, _Z6 = [[1, 0], [0, 1]], [[int(i == j) for j in range(6)] for i in range(6)]

# Star files whose entries repeat, mix strings with other JSON values, or
# spell one rational several ways, with the pairings or the InputError text
# star_from_json_dict gave them when it parsed every entry on its own.
READER_TABLE = [
    (_A2, [["1/3", "1/3"]] * 40, ((1, 1),) * 40),
    (_A2, [["1/3", "1/3"], ["2/3", "-1/3"], ["-1/3", "2/3"]] * 12,
     ((1, 1), (1, 0), (0, 1)) * 12),
    (_Z6, [["1" if i == j else "0" for j in range(6)] for i in range(6)] * 5,
     tuple(tuple(int(i == j) for j in range(6)) for i in range(6)) * 5),
    (_Z2, [["1", 1], [1, "1"], ["1", "0"]], ((1, 1), (1, 1), (1, 0))),
    (_Z2, [[1, 1], [1, True]], "expected a rational, got the boolean True"),
    (_Z2, [["1", "1"], ["1", True]], "expected a rational, got the boolean True"),
    (_Z2, [[True, "x"]], "expected a rational, got the boolean True"),
    (_Z2, [["x", True]], "bad rational 'x': expected 'p/q' or 'n'"),
    (_Z2, [[1, "0"], [1.0, "0"]], "expected a rational string, got float"),
    (_Z2, [["1", "0"], ["1", 1.0]], "expected a rational string, got float"),
    (_Z2, [["1", "0"], ["1", [1]]], "expected a rational string, got list"),
    (_Z2, [["1", "0"], ["1", None]], "expected a rational string, got NoneType"),
    (_I2, [[" 1/2", "1/2"], ["1/2 ", "-1/2"], ["2/4", "-2/4"]], ((1, 1), (1, -1), (1, -1))),
    (_I2, [[" 1/2", "1/2"], ["1/2", " 1/2"], ["1/2", "1/2\n"]], ((1, 1),) * 3),
    (_I2, [["1/2", "1/2"], ["1/2", "1/0"]], "bad rational '1/0': zero denominator"),
    (_I2, [["1/2", "1/2"], ["1.5", "1/2"], ["1.5", "1/2"]],
     "bad rational '1.5': expected 'p/q' or 'n'"),
    (_I2, [["+1/2", "-1/2"], ["-1/2", "+1/2"], ["1/2", "1/2"]], ((1, -1), (-1, 1), (1, 1))),
    (_A2, [["1/2", "0"]], "vector 0: not in the dual lattice (pairings ['1', '1/2'])"),
    (_A2, [["1/3", "1/3"], ["1/2", "0"], ["1/2", "0"]],
     "vector 1: not in the dual lattice (pairings ['1', '1/2'])"),
    (_A2, [["1/3", "1/3"], ["1/3"], ["1/3", "1/3"]], "vector 1: length 1, expected 2"),
    (_A2, [["1/3", "1/3"], ["0", "0/7"]], "vector 1: zero vector not allowed"),
    (_Z2, [["3", "-4"], [2, "0"], ["0", 5]], ((3, -4), (2, 0), (0, 5))),
    (_Z2, [["123456789012345678901234567890", "-1"], ["2/1", "0/1"]],
     ((123456789012345678901234567890, -1), (2, 0))),
    (_A2, [["123456789012345678901234567891/3", "1/3"], ["1/3", "1/3"]],
     ((82304526008230452600823045261, 41152263004115226300411522631), (1, 1))),
    (_A2, [["246913578024691357802469135780/3", "1/3"], ["1/3", "1/3"]],
     "vector 0: not in the dual lattice (pairings "
     "['493827156049382715604938271561/3', '246913578024691357802469135782/3'])"),
]


@pytest.mark.parametrize("gram,vectors,want", READER_TABLE)
def test_reader_table(gram, vectors, want):
    """star_from_json_dict gives the recorded outcome, which is also that of
    reading every entry through rational_parts on its own."""
    data = {"gram": gram, "vectors": vectors}

    def one_by_one():
        parsed = [[Q(*rational_parts(x)) for x in v] for v in vectors]
        return star_from_vectors(Lattice(gram), parsed)

    assert _outcome(lambda: star_from_json_dict(data)) == _outcome(one_by_one) == \
        (("error", want) if isinstance(want, str) else want)


def test_rational_point_helper_shape():
    rng = random.Random(0)
    p = rational_point(rng, 3)
    assert len(p) == 3 and all(isinstance(x, Q) for x in p)


@pytest.mark.parametrize("entry", [True, False, 0.5, 1.0, 1j])
def test_inexact_and_boolean_entries_rejected(entry):
    # Every library entry point that reads rationals goes through
    # clear_denominators, which must take neither True as 1 nor 0.5 as 1/2,
    # just as the file loader and Lattice reject such entries.  The
    # constructor names the vector, as its other errors do.
    a2 = build_star(catalog("A2"))
    lat = Lattice([[2]])
    for prefix, call in (
            ("", lambda: clear_denominators([[Q(1, 2), entry]])),
            ("", lambda: star_from_vectors(lat, [(entry,)])),
            ("", lambda: star_from_vectors(a2.lattice, [(Q(1, 3), 0), (0, entry)])),
            ("vector 0: ", lambda: star_from_pairings(lat, [(entry,)])),
            ("vector 1: ", lambda: EutacticStar(a2.lattice, [(1, 0), (entry, 1)])),
            ("", lambda: deficiency(a2, (entry, 0))),
            ("", lambda: divisor_multiplicity(a2, (1, entry))),
            ("", lambda: reflect_series(theta_block(a2, n24_max=12), (entry, 1)))):
        with pytest.raises(InputError, match=f"^{prefix}{type(entry).__name__} entry "
                                             ".* is not an exact rational$"):
            call()


@pytest.mark.parametrize("call", [
    lambda: deficiency(build_star(catalog("A2")), (Q(1, 3),)),
    lambda: divisor_multiplicity(build_star(catalog("A2")), (1,)),
    lambda: reflect_series(theta_block(build_star(catalog("A2")), n24_max=60), (1,)),
    lambda: check_antisymmetry(theta_block(build_star(catalog("A2")), n24_max=60), (1, 0, 0)),
    lambda: star_from_pairings(Lattice([[2, 1], [1, 2]]), [(1, 0, 0)]),
    lambda: star_from_pairings(Lattice([[2, 1], [1, 2]]), [(1, 1), (1,)]),
], ids=["deficiency", "divisor_multiplicity", "reflect_series", "check_antisymmetry",
        "star_from_pairings_long", "star_from_pairings_short"])
def test_wrong_length_vectors_rejected(call):
    # zip would truncate a long vector and indexing would fail on a short one.
    with pytest.raises(InputError, match="length"):
        call()
