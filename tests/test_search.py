"""Complete star enumeration and the extremal-implies-root-system check."""

import cProfile
import hashlib
import math
import random
import types
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eustar import search
from eustar.certify import certify_extremal, certify_if_extremal
from eustar.lattice import InputError, InternalError, Lattice
from eustar.linalg import sym_elim
from eustar.rootsys import build_P_lattice, catalog
from eustar.search import _fitting, canonical_pairings, enumerate_stars, verify_theorem
from eustar.star import is_eutactic

from conftest import CORPUS_GRAMS

# gram -> (number of stars, number of extremal stars, extremal type labels)
EXPECTED = {
    ((1,),): (1, 1, ["A1"]),
    ((2,),): (1, 0, []),
    ((3,),): (1, 0, []),
    ((1, 0), (0, 1)): (1, 1, ["A1 x A1"]),
    ((2, 1), (1, 2)): (1, 1, ["A2"]),
    ((2, 0), (0, 2)): (2, 1, ["A1 x A1"]),
    ((4, 1), (1, 4)): (2, 0, []),
}


def test_corpus_covers_expectations():
    assert {tuple(tuple(r) for r in g) for g in CORPUS_GRAMS} == set(EXPECTED)


@pytest.mark.parametrize("gram", sorted(EXPECTED))
def test_verify_theorem_on_corpus(gram):
    n_stars, n_extremal, labels = EXPECTED[gram]
    report = verify_theorem(Lattice([list(r) for r in gram]))
    assert report["stars"] == n_stars
    assert report["counterexamples"] == []
    assert len(report["extremal"]) == n_extremal
    assert [e["types"] for e in report["extremal"]] == labels
    for e in report["extremal"]:
        assert e["rank_match"] is True
        assert e["certificate"]["extremal"] is True


def test_every_enumerated_star_is_eutactic():
    for gram in CORPUS_GRAMS:
        for star in enumerate_stars(Lattice(gram)):
            assert is_eutactic(star)


def test_trace_eight_lattice_stars_frozen():
    stars = enumerate_stars(Lattice([[4, 1], [1, 4]]))
    got = {s.pairings for s in stars}
    assert got == {
        ((1, 1), (1, 1), (1, 0), (1, -1), (0, 1)),
        ((1, 1), (1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
    }


def test_diagonal_lattice_stars_frozen():
    stars = enumerate_stars(Lattice([[2, 0], [0, 2]]))
    assert {s.pairings for s in stars} == {
        ((1, 1), (1, -1)),
        ((1, 0), (1, 0), (0, 1), (0, 1)),
    }


def test_canonical_pairings():
    assert canonical_pairings([(-1, 2), (0, -3), (1, 0)]) == \
        ((1, 0), (1, -2), (0, 3))
    rng = random.Random(3)
    base = [(1, 2), (0, 1), (2, -1), (1, 0)]
    canon = canonical_pairings(base)
    assert canonical_pairings(canon) == canon
    for _ in range(50):
        signs = [rng.choice((1, -1)) for _ in base]
        shuffled = [tuple(s * x for x in u) for s, u in zip(signs, base)]
        rng.shuffle(shuffled)
        assert canonical_pairings(shuffled) == canon


def test_max_n_guard():
    with pytest.raises(InputError):
        enumerate_stars(Lattice([[2, 0], [0, 2]]), max_n=1)
    # A permissive bound changes nothing.
    stars = enumerate_stars(Lattice([[2, 0], [0, 2]]), max_n=10)
    assert len(stars) == 2
    # max_n is keyword-only: a second positional argument is refused, not
    # read as a bound.
    with pytest.raises(TypeError):
        enumerate_stars(Lattice([[2, 0], [0, 2]]), False)


def test_extremal_entry_shape():
    report = verify_theorem(Lattice([[2, 1], [1, 2]]))
    entry = report["extremal"][0]
    assert set(entry) == {"pairings", "vectors", "certificate", "types", "rank_match"}
    assert entry["pairings"] == [[1, 1], [1, 0], [0, 1]]
    assert entry["certificate"]["min"] == "1/24"
    assert entry["certificate"]["witness"] == ["1/3", "1/3"]


def box_alphabet(gram):
    """The box filter: the vectors u with lead > 0 and gram - u u^T PSD, by a
    fresh sym_elim on each vector of the box prod_i [-isqrt(G_ii), isqrt(G_ii)],
    in descending order.  The box holds every such u, as u_i^2 <= G_ii.  The
    reference for search._search_space's alphabet."""
    l = len(gram)
    alphabet = []
    for u in product(*(range(-math.isqrt(gram[i][i]), math.isqrt(gram[i][i]) + 1)
                       for i in range(l))):
        if next((x for x in u if x != 0), 0) <= 0:
            continue
        resid = [[gram[i][j] - u[i] * u[j] for j in range(l)] for i in range(l)]
        if all(resid[i][i] >= 0 for i in range(l)) and sym_elim(resid) is not None:
            alphabet.append(u)
    return sorted(alphabet, reverse=True)


def oracle_pairings(gram):
    """Pairing lists by plain backtracking: the box filter's alphabet, a fresh
    sym_elim on every child residual and no lead-position cut, memoised on
    (start, residual).  The reference for enumerate_stars."""
    l = len(gram)
    alphabet = box_alphabet(gram)

    @cache
    def completions(start, residual):
        """Every non-increasing run of alphabet[start:] whose u u^T sum to residual."""
        if all(x == 0 for row in residual for x in row):
            return [()]
        out = []
        for i in range(start, len(alphabet)):
            u = alphabet[i]
            nxt = tuple(tuple(residual[a][b] - u[a] * u[b] for b in range(l)) for a in range(l))
            if any(nxt[a][a] < 0 for a in range(l)) or sym_elim(nxt) is None:
                continue
            out.extend((u,) + rest for rest in completions(i, nxt))
        return out

    return completions(0, tuple(map(tuple, gram)))


@st.composite
def pd_grams(draw, max_diag):
    l = draw(st.integers(1, 3))
    diag = [draw(st.integers(1, max_diag)) for _ in range(l)]
    gram = [[0] * l for _ in range(l)]
    for i in range(l):
        gram[i][i] = diag[i]
        for j in range(i):
            b = math.isqrt(diag[i] * diag[j])
            gram[i][j] = gram[j][i] = draw(st.integers(-b, b))
    r = sym_elim(gram)
    assume(r is not None and all(r[k][k] > 0 for k in range(l)))
    return gram


@settings(max_examples=100, deadline=None)
@given(pd_grams(max_diag=9))
def test_enumeration_matches_oracle(gram):
    got = [s.pairings for s in enumerate_stars(Lattice(gram))]
    assert got == oracle_pairings(gram)


def check_alphabet_is_box_filter(lattice):
    """_search_space's alphabet, listed by Fincke-Pohst on the dual Gram, is
    the box filter's in the search's coordinates, sorted into lead blocks;
    mapped back, it is the box filter's in the lattice's basis."""
    g, alphabet, begin, mapped = search._search_space(lattice)
    assert alphabet == box_alphabet(g)
    assert begin[0] == 0 and begin[-1] == len(alphabet)
    for p in range(lattice.rank):
        assert all(u[:p] == (0,) * p and u[p] > 0 for u in alphabet[begin[p]:begin[p + 1]])
    assert sorted(mapped, reverse=True) == box_alphabet(lattice.gram)


@pytest.mark.parametrize("gram", CORPUS_GRAMS, ids=str)
def test_alphabet_matches_box_filter_on_corpus(gram):
    check_alphabet_is_box_filter(Lattice(gram))


@pytest.mark.parametrize("label", ["A3", "G2", "B3", "C3", "A4", "D4", "B4", "C4"])
def test_alphabet_matches_box_filter_on_weight_lattices(label):
    check_alphabet_is_box_filter(build_P_lattice(catalog(label)))


@settings(max_examples=100, deadline=None)
@given(pd_grams(max_diag=16))
def test_alphabet_matches_box_filter(gram):
    check_alphabet_is_box_filter(Lattice(gram))


@settings(max_examples=100, deadline=None)
@given(pd_grams(max_diag=16), st.randoms(use_true_random=False))
def test_alphabet_follows_signed_permutations(gram, rng):
    # In the basis b_i = s_i e_p(i) the Gram is s_i s_j G[p(i)][p(j)] and an
    # alphabet vector u becomes s_i u[p(i)], as u^T G^-1 u is unchanged; where
    # the Gram is unchanged too, the map takes the alphabet onto itself.
    l = len(gram)
    p, s = rng.sample(range(l), l), [rng.choice((1, -1)) for _ in range(l)]
    moved = Lattice([[s[i] * s[j] * gram[p[i]][p[j]] for j in range(l)] for i in range(l)])
    mapped = search._search_space(Lattice(gram))[3]
    want = {canonical_pairings([[s[i] * u[p[i]] for i in range(l)]])[0] for u in mapped}
    assert set(search._search_space(moved)[3]) == want


@st.composite
def sparse_grams(draw):
    """B^T B for an upper triangular B of rank up to 8 with diagonal 1 or 2
    and mostly zero entries above it, so that the coordinates often fall
    into several classes linked by nonzero Gram entries."""
    l = draw(st.integers(1, 8))
    b = [[draw(st.sampled_from((1, 2))) if i == j else
          draw(st.sampled_from((0, 0, 0, 1, -1))) if i < j else 0
          for j in range(l)] for i in range(l)]
    return [[sum(b[k][i] * b[k][j] for k in range(l)) for j in range(l)] for i in range(l)]


@settings(max_examples=100, deadline=None)
@given(sparse_grams())
@example([[2, 0], [0, 2]])
def test_signs_are_the_first_lexicographically_least(gram):
    # The definition of the search's signs, by comparing all 2^(l-1) choices
    # in product order: the first that makes the upper triangle, row by row,
    # lexicographically least.  g fixes the signs within each class; mapped
    # fixes the classes' relative signs where an alphabet vector spans two.
    l = len(gram)
    order = sorted(range(l), key=lambda i: (gram[i][i], i))
    signs = min(product((1,), *[(1, -1)] * (l - 1)),
                key=lambda s: [s[a] * s[b] * gram[order[a]][order[b]]
                               for a in range(l) for b in range(a + 1, l)])
    g, alphabet, begin, mapped = search._search_space(Lattice(gram))
    assert g == [[signs[a] * signs[b] * gram[i][j] for b, j in enumerate(order)]
                 for a, i in enumerate(order)]
    back = sorted(range(l), key=order.__getitem__)
    assert mapped == [canonical_pairings([[signs[a] * u[a] for a in back]])[0]
                      for u in alphabet]


@pytest.mark.parametrize("gram", [[[10 ** 12]], [[10 ** 400]], [[10 ** 400, 0], [0, 1]]],
                         ids=["1e12", "1e400", "1e400-by-1"])
def test_huge_diagonal_refused_at_the_first_point(gram, monkeypatch):
    # More than _MAX_POINTS axis points t e_a: the walk stops at its first
    # point, not after _MAX_POINTS of them.
    listed = []
    walk = search._close_points

    def counted(*args):
        for point in walk(*args):
            listed.append(point)
            yield point

    monkeypatch.setattr(search, "_close_points", counted)
    with pytest.raises(InputError, match="lists more than"):
        search._search_space(Lattice(gram))
    assert len(listed) == 1


# Weight lattice -> alphabet size.  The D6 box holds 441,441 vectors, and the
# box filter gave the same alphabet once; the others' boxes hold 0.5 to 12.9
# million, too many to filter here.  The CI frontier-enumeration job checks
# E7 and D8, whose boxes hold over 500 million.
ALPHABET_SIZES = {"D6": 1718, "E6": 3186, "B6": 4078, "C6": 4390, "A7": 1869,
                  "A8": 4377, "D7": 9527}


@pytest.mark.parametrize("label", sorted(ALPHABET_SIZES))
def test_alphabet_sizes_pinned(label):
    g, alphabet, begin, mapped = search._search_space(build_P_lattice(catalog(label)))
    assert len(alphabet) == len(set(mapped)) == ALPHABET_SIZES[label]


# Weight lattice -> (stars, sha256 of repr of the list of pairings in
# enumeration order), recorded with the per-child backtracking of
# oracle_pairings before the lead-position cut and the bordered PSD test.
FROZEN_ENUMERATIONS = {
    "B3": (63, "cda358944e315d39e734410c5a285ee8102d0548a514df48e6279fbead3764cb"),
    "C3": (98, "5c09ce544e6738c2bc4f8731f4d2a9155a02adfb730882d4696dccf3b521d0db"),
    "A4": (27, "4168d0e41c080e52381c4f02d8bc687178628122a3c631c4a2ff8ef8ad22476f"),
    "D4": (209, "f9f784b9ac41228879f38efea8b5031fb50854439213bef3b60a783fe619a656"),
}


@pytest.mark.parametrize("label", sorted(FROZEN_ENUMERATIONS))
def test_weight_lattice_enumerations_frozen(label):
    pairings = [s.pairings for s in enumerate_stars(build_P_lattice(catalog(label)))]
    digest = hashlib.sha256(repr(pairings).encode()).hexdigest()
    assert (len(pairings), digest) == FROZEN_ENUMERATIONS[label]


def plain_enumeration(lattice, max_n=None):
    """The pairing lists of the plain backtracking: enumerate_stars' search
    space, lead-position cut and bordered search._fitting, with no node
    table, so a subtree is searched again each time a prefix reaches it.
    The reference for enumerate_stars' table and its max_n."""
    g, alphabet, begin, mapped = search._search_space(lattice)
    l = lattice.rank
    found = []

    def backtrack(start, residual, chosen):
        # A PSD residual with a zero diagonal entry has a zero row there.
        first = next((k for k in range(l) if residual[k][k] > 0), None)
        if first is None:
            found.append(tuple(sorted(chosen, reverse=True)))
            return
        if max_n is not None and len(chosen) >= max_n:
            raise InputError(f"enumeration exceeded max_n={max_n}")
        lo, hi = max(start, begin[first]), begin[first + 1]
        # The diagonal test, vector by vector: every u_a^2 <= residual[a][a].
        live = [k for k in range(lo, hi)
                if all(x * x <= residual[a][a] for a, x in enumerate(alphabet[k]))]
        for j in search._fitting([residual[a] + [alphabet[k][a] for k in live]
                                  for a in range(l)]):
            k = live[j]
            u = alphabet[k]
            chosen.append(mapped[k])
            backtrack(k, [[residual[a][b] - u[a] * u[b] for b in range(l)]
                          for a in range(l)], chosen)
            chosen.pop()

    backtrack(0, g, [])
    return sorted(found, reverse=True)


def _stars(lattice):
    return [s.pairings for s in enumerate_stars(lattice)]


def _counted(monkeypatch, f, enumerate_, lattice):
    """enumerate_(lattice) and the number of calls it made to search.<f>."""
    calls = []

    def counted(*args):
        calls.append(1)
        return f(*args)

    monkeypatch.setattr(search, f.__name__, counted)
    return enumerate_(lattice), len(calls)


def _counted_enumeration(monkeypatch, lattice):
    """The pairings of enumerate_stars and the number of sym_elim calls it made."""
    return _counted(monkeypatch, sym_elim, _stars, lattice)


def test_d4_weight_enumeration_work_pinned(monkeypatch):
    # The plain backtracking makes one sym_elim for the alphabet and one per
    # node that has a candidate left after the diagonal test, in the search's
    # sorted, sign-normalized coordinates.  In the lattice's own coordinates
    # the same search made 3,076 calls; a fresh elimination per child
    # residual, with no lead-position cut, made 258,840.
    pairings, calls = _counted(monkeypatch, sym_elim, plain_enumeration,
                               build_P_lattice(catalog("D4")))
    assert (len(pairings), calls) == (209, 2256)


def test_d4_weight_enumeration_table_work_pinned(monkeypatch):
    # enumerate_stars expands each (residual, least index) node once, and
    # eliminates only at a node whose lead diagonal entry is not 1 and that
    # has a candidate, so it makes 1,111 sym_elim calls where the plain
    # backtracking makes 2,256.
    pairings, calls = _counted_enumeration(monkeypatch, build_P_lattice(catalog("D4")))
    assert (len(pairings), calls) == (209, 1111)


@pytest.mark.parametrize("label,fitted,plain", [("B3", 175, 564), ("C3", 326, 966)])
def test_nodes_expanded_pinned(label, fitted, plain, monkeypatch):
    # One _fitting call per node expanded that has no unit pivot and has a
    # candidate, and none for the alphabet: the table expands each of its 378
    # (B3) or 713 (C3) nodes once, the plain backtracking calls _fitting once
    # per prefix.
    lattice = build_P_lattice(catalog(label))
    assert _counted(monkeypatch, _fitting, _stars, lattice)[1] == fitted
    assert _counted(monkeypatch, _fitting, plain_enumeration, lattice)[1] == plain


@pytest.mark.parametrize("label,visits", [("B3", 437), ("C3", 842), ("D4", 2558)])
def test_node_visits_pinned(label, visits):
    # Calls of enumerate_stars's nested visit, one per residual reached,
    # whether its node is made, found in the table or the zero residual: the
    # node table's size plus its hits, counted by cProfile under visit's code
    # object, so the count needs no instrument in the search itself.
    code = next(c for c in enumerate_stars.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == "visit")
    profile = cProfile.Profile()
    profile.enable()
    try:
        enumerate_stars(build_P_lattice(catalog(label)))
    finally:
        profile.disable()
    assert [e.callcount for e in profile.getstats() if e.code is code] == [visits]


@settings(max_examples=100, deadline=None)
@given(pd_grams(max_diag=9))
def test_table_matches_plain_enumeration(gram):
    lattice = Lattice(gram)
    want = plain_enumeration(lattice)
    assert _stars(lattice) == want
    # max_n raises at a nonzero residual reached with max_n vectors chosen,
    # in the table exactly as in the plain backtracking.
    for max_n in range(1, max(map(len, want), default=0) + 2):
        outcomes = []
        for run in (enumerate_stars, plain_enumeration):
            try:
                run(lattice, max_n=max_n)
                outcomes.append(False)
            except InputError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1], max_n


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_enumeration_invariant_under_signed_permutations(label, monkeypatch):
    # In the basis b_i = s_i e_p(i) the Gram is s_i s_j G[p(i)][p(j)] and a
    # pairing u becomes s_i u[p(i)].  Mapped back, every basis gives the same
    # list in the same order, and the search does the same work: it runs in
    # coordinates that depend on the Gram alone (the diagonal is distinct).
    lattice = build_P_lattice(catalog(label))
    g, l = lattice.gram, lattice.rank
    want = _counted_enumeration(monkeypatch, lattice)
    for p in permutations(range(l)):
        for s in product((1, -1), repeat=l):
            moved = Lattice([[s[i] * s[j] * g[p[i]][p[j]] for j in range(l)]
                             for i in range(l)])
            pairings, calls = _counted_enumeration(monkeypatch, moved)
            back = []
            for star in pairings:
                rows = []
                for u in star:
                    v = [0] * l
                    for i in range(l):
                        v[p[i]] = s[i] * u[i]
                    rows.append(v)
                back.append(canonical_pairings(rows))
            assert (sorted(back, reverse=True), calls) == want, (p, s)


@pytest.mark.parametrize("label", ["B3", "C3", "A4", "D4"])
def test_verdict_path_agrees_with_certify_extremal(label):
    # certify_if_extremal stops at the first point below the threshold; on
    # every star it must reach the verdict of the full certificate, and on an
    # extremal star return that certificate itself.
    extremal = 0
    for star in enumerate_stars(build_P_lattice(catalog(label))):
        full = certify_extremal(star)
        fast = certify_if_extremal(star)
        assert (fast is not None) == full.is_extremal
        if fast is not None:
            extremal += 1
            assert fast == full
    assert extremal >= 1


def random_unimodular(rng, l):
    """A signed permutation times a few elementary column operations."""
    b = [[int(i == j) for j in range(l)] for i in range(l)]
    for _ in range(2):
        i, j = rng.sample(range(l), 2)
        c = rng.choice((1, -1))
        for row in b:
            row[j] += c * row[i]
    perm = rng.sample(range(l), l)
    return [[rng.choice((1, -1)) * row[p] for p in perm] for row in b]


@pytest.mark.parametrize("label,seed", [("A3", 1), ("A3", 2), ("B3", 3), ("B3", 4)])
def test_star_set_follows_unimodular_basis_change(label, seed):
    # In the basis B, the Gram is B^T G B and a star's pairing vectors are B^T u.
    lattice = build_P_lattice(catalog(label))
    g, l = lattice.gram, lattice.rank
    b = random_unimodular(random.Random(seed), l)
    moved = Lattice([[sum(b[k][i] * g[k][m] * b[m][j] for k in range(l) for m in range(l))
                      for j in range(l)] for i in range(l)])
    stars = enumerate_stars(lattice)
    moved_stars = enumerate_stars(moved)
    assert len(moved_stars) == len(stars)
    mapped = {canonical_pairings([[sum(b[k][i] * u[k] for k in range(l)) for i in range(l)]
                                  for u in s.pairings]) for s in stars}
    assert mapped == {canonical_pairings(s.pairings) for s in moved_stars}


def test_non_psd_residual_raises_internal_error():
    with pytest.raises(InternalError):
        search._fitting([[1, 2, 1], [2, 1, 0]])


def test_unit_pivot_row_missing_raises_internal_error(monkeypatch):
    # On Z^2 the root's unit pivot picks (1, 0), and the residual it leaves
    # has its unit pivot at (0, 1): an alphabet without that vector breaks
    # the invariant that every unit-pivot row is in the alphabet.
    space = search._search_space

    def without_0_1(lattice):
        g, alphabet, begin, mapped = space(lattice)
        k = alphabet.index((0, 1))
        return (g, alphabet[:k] + alphabet[k + 1:],
                [b - (b > k) for b in begin], mapped[:k] + mapped[k + 1:])

    lattice = Lattice([[1, 0], [0, 1]])
    assert len(enumerate_stars(lattice)) == 1
    monkeypatch.setattr(search, "_search_space", without_0_1)
    with pytest.raises(InternalError):
        enumerate_stars(lattice)


@settings(max_examples=100, deadline=None)
@given(pd_grams(max_diag=9), st.randoms(use_true_random=False))
def test_unit_pivot_keeps_only_its_row(gram, rng):
    # Along a random enumeration path, R = G - sum v v^T.  Wherever R's first
    # nonzero diagonal entry R_ff is 1, of every vector with lead f only R's
    # row f leaves R - u u^T PSD: enumerate_stars takes that row as the
    # node's one child without an elimination.
    g, alphabet, begin, mapped = search._search_space(Lattice(gram))
    l = len(g)
    residual, start = [list(row) for row in g], 0
    while True:
        first = next((a for a in range(l) if residual[a][a] > 0), None)
        if first is None:
            break
        block = range(begin[first], begin[first + 1])
        fit = search._fitting([residual[a] + [alphabet[k][a] for k in block]
                               for a in range(l)])
        if residual[first][first] == 1:
            assert [alphabet[block[c]] for c in fit] == [tuple(residual[first])]
            u = residual[first]
            assert sym_elim([[residual[a][b] - u[a] * u[b] for b in range(l)]
                             for a in range(l)]) is not None
        children = [block[c] for c in fit if block[c] >= start]
        if not children:
            break
        start = rng.choice(children)
        u = alphabet[start]
        residual = [[residual[a][b] - u[a] * u[b] for b in range(l)] for a in range(l)]


@st.composite
def residuals_with_candidates(draw):
    """(R, vectors): R = B^T B, PSD and often singular, with zero rows where
    a column of B is zero; the vectors mix rows of B, which always fit, with
    arbitrary ones, some of them past R's diagonal."""
    l = draw(st.integers(1, 4))
    zero = draw(st.lists(st.booleans(), min_size=l, max_size=l))
    entry = st.integers(-2, 2)
    b = [[0 if z else x for x, z in zip(row, zero)]
         for row in draw(st.lists(st.lists(entry, min_size=l, max_size=l), max_size=l + 1))]
    r = [[sum(row[i] * row[j] for row in b) for j in range(l)] for i in range(l)]
    vectors = draw(st.lists(st.one_of(st.sampled_from(b) if b else st.nothing(),
                                      st.lists(st.integers(-3, 3), min_size=l, max_size=l)),
                            max_size=8))
    return r, vectors


@settings(max_examples=300, deadline=None)
@given(residuals_with_candidates())
@example(([[1, 1], [1, 1]], [(1, 1), (1, 0), (1, -1), (0, 1), (2, 2)]))
@example(([[0, 0, 0], [0, 2, 1], [0, 1, 1]], [(0, 1, 1), (0, 1, 0), (1, 0, 0), (0, 1, -1)]))
@example(([[0, 0], [0, 0]], [(0, 0), (0, 1)]))
def test_fitting_matches_fresh_elimination(case):
    # _fitting's one bordered elimination keeps exactly the vectors u for
    # which a fresh sym_elim finds R - u u^T PSD, whether R arrives whole or,
    # as enumerate_stars builds it, as its upper triangle padded with zeros.
    r, vectors = case
    l = len(r)
    want = [c for c, u in enumerate(vectors)
            if sym_elim([[r[a][b] - u[a] * u[b] for b in range(l)] for a in range(l)])
            is not None]
    columns = [[u[a] for u in vectors] for a in range(l)]
    assert search._fitting([r[a] + columns[a] for a in range(l)]) == want
    assert search._fitting([[0] * a + r[a][a:] + columns[a] for a in range(l)]) == want
    assert search._fitting(r) == []
