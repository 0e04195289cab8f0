"""Complete star enumeration and the extremal-implies-root-system check."""

import hashlib
import math
import random
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eustar import search
from eustar.lattice import InputError, InternalError, Lattice
from eustar.linalg import sym_elim
from eustar.rootsys import build_P_lattice, catalog
from eustar.search import canonical_pairings, enumerate_stars, verify_theorem
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


def test_sign_expansion():
    no_dedup = enumerate_stars(Lattice([[1]]), canonical_dedup=False)
    assert [s.pairings for s in no_dedup] == [((1,),), ((-1,),)]
    a2 = Lattice([[2, 1], [1, 2]])
    expanded = enumerate_stars(a2, canonical_dedup=False)
    assert len(expanded) == 8  # three sign choices, all multisets distinct
    canon = {canonical_pairings(s.pairings) for s in expanded}
    assert len(canon) == 1
    for star in expanded:
        assert is_eutactic(star)


def test_max_n_guard():
    with pytest.raises(InputError):
        enumerate_stars(Lattice([[2, 0], [0, 2]]), max_n=1)
    # A permissive bound changes nothing.
    stars = enumerate_stars(Lattice([[2, 0], [0, 2]]), max_n=10)
    assert len(stars) == 2


def test_extremal_entry_shape():
    report = verify_theorem(Lattice([[2, 1], [1, 2]]))
    entry = report["extremal"][0]
    assert set(entry) == {"pairings", "vectors", "certificate", "types", "rank_match"}
    assert entry["pairings"] == [[1, 1], [1, 0], [0, 1]]
    assert entry["certificate"]["min"] == "1/24"
    assert entry["certificate"]["witness"] == ["1/3", "1/3"]


def oracle_pairings(gram, canonical_dedup=True):
    """Pairing lists by plain backtracking: a fresh sym_elim on every child
    residual and no lead-position cut, memoised on (start, residual).  The
    reference for enumerate_stars."""
    l = len(gram)
    alphabet = []
    for u in product(*(range(-math.isqrt(gram[i][i]), math.isqrt(gram[i][i]) + 1)
                       for i in range(l))):
        if next((x for x in u if x != 0), 0) <= 0:
            continue
        resid = [[gram[i][j] - u[i] * u[j] for j in range(l)] for i in range(l)]
        if all(resid[i][i] >= 0 for i in range(l)) and sym_elim(resid) is not None:
            alphabet.append(u)
    alphabet.sort(reverse=True)

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

    found = completions(0, tuple(map(tuple, gram)))
    if canonical_dedup:
        return found
    expanded = set()
    for rep in found:
        for signs in product((1, -1), repeat=len(rep)):
            expanded.add(tuple(sorted(tuple(s * x for x in u) for s, u in zip(signs, rep))))
    return sorted(expanded, reverse=True)


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


@settings(max_examples=50, deadline=None)
@given(pd_grams(max_diag=4))
def test_sign_expanded_enumeration_matches_oracle(gram):
    got = [s.pairings for s in enumerate_stars(Lattice(gram), canonical_dedup=False)]
    assert got == oracle_pairings(gram, canonical_dedup=False)


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


def test_d4_weight_enumeration_work_pinned(monkeypatch):
    # One sym_elim for the alphabet and one per node that has a candidate
    # left after the diagonal test.  A fresh elimination per child residual,
    # with no lead-position cut, made 258,840 calls here.
    calls = []

    def counted(m):
        calls.append(1)
        return sym_elim(m)

    monkeypatch.setattr(search, "sym_elim", counted)
    assert len(enumerate_stars(build_P_lattice(catalog("D4")))) == 209
    assert len(calls) == 3076


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
        search._fitting([[1, 2], [2, 1]], [(1, 0)])
