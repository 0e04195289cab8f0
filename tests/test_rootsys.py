"""Root system catalog and recognition.

The catalog derives everything from the Cartan matrices: roots by reflection
closure, the dual Coxeter number from the proportionality of the squared-sum
form, the weight lattice Gram as that squared-sum form.  The classical
closed-form tables below are the independent cross-check.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eustar import rootsys
from eustar.cli import main
from eustar.lattice import InputError, InternalError, Lattice
from eustar.rootsys import (RecognitionReport, build_P_lattice, build_star,
                            catalog, catalog_labels, parse_label, recognize_star)
from eustar.star import EutacticStar, dump_star, is_eutactic, star_from_vectors

from conftest import change_basis, random_unimodular, support_set, support_star
from test_linalg import det, gauss_jordan_rank


def classical_dual_coxeter(family, n):
    if family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2,
            "F": 9, "G": 4}[family]


def classical_positive_count(family, n):
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "F": 24, "G": 6}[family]


def test_parse_label():
    assert parse_label("A1") == ("A", 1)
    assert parse_label(" E8 ") == ("E", 8)
    for bad in ("A0", "A9", "B1", "C2", "D3", "E5", "F5", "G3", "H4", "a2", "", 7):
        with pytest.raises(InputError):
            parse_label(bad)


def test_catalog_labels():
    labels = catalog_labels()
    assert len(labels) == 31
    assert labels[0] == "A1" and "E8" in labels and "G2" in labels
    assert [lab for lab in labels if parse_label(lab)[1] <= 2] == ["A1", "A2", "B2", "G2"]


@pytest.mark.parametrize("label", catalog_labels())
def test_catalog_against_classical_tables(label):
    family, n = parse_label(label)
    desc = catalog(label)
    assert desc.rank == n
    assert desc.dual_coxeter == classical_dual_coxeter(family, n)
    assert len(desc.positive_roots) == classical_positive_count(family, n)


def test_frozen_small_descriptors():
    a2 = catalog("A2")
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.positive_roots == ((0, 1), (1, 0), (1, 1))
    assert a2.norm_gram == ((2, -1), (-1, 2))
    b2 = catalog("B2")
    assert b2.cartan == ((2, -2), (-1, 2))
    assert b2.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))
    g2 = catalog("G2")
    assert g2.cartan == ((2, -1), (-3, 2))
    assert g2.positive_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    assert g2.norm_gram[0][0] == Q(2, 3)  # short simple root first


def bourbaki_norms(family, n):
    """Squared lengths of the simple roots in Bourbaki numbering, long roots 2."""
    if family in "ADE":
        return [2] * n
    if family == "B":
        return [2] * (n - 1) + [1]
    if family == "C":
        return [1] * (n - 1) + [2]
    if family == "F":
        return [2, 2, 1, 1]
    return [Q(2, 3), 2]  # G2


def test_simple_root_norms_match_bourbaki_table():
    # The catalog reads the norms off the Cartan matrix; the table states
    # which simple roots are short.
    for label in catalog_labels():
        desc = catalog(label)
        diagonal = [desc.norm_gram[i][i] for i in range(desc.rank)]
        assert diagonal == bourbaki_norms(*parse_label(label)), label
        assert all(type(x) is Q for row in desc.norm_gram for x in row)
        assert all(desc.norm_gram[i][j] == desc.norm_gram[j][i]
                   for i in range(desc.rank) for j in range(desc.rank))


def test_broken_weight_lattice_check_raises_internal_error():
    desc = dataclasses.replace(catalog("A2"), dual_coxeter=4)
    with pytest.raises(InternalError, match="is not h M"):
        build_P_lattice(desc)


def test_long_roots_have_norm_two():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2"):
        desc = catalog(label)
        norms = set()
        for r in desc.positive_roots:
            norms.add(sum(Q(r[i]) * desc.norm_gram[i][j] * r[j]
                          for i in range(desc.rank) for j in range(desc.rank)))
        assert max(norms) == 2
        assert len(norms) <= 2


def test_weight_lattice_grams_frozen():
    assert build_P_lattice(catalog("A2")).gram == ((2, 1), (1, 2))
    assert build_P_lattice(catalog("B2")).gram == ((3, 3), (3, 6))
    assert build_P_lattice(catalog("G2")).gram == ((24, 12), (12, 8))


def test_built_stars_are_eutactic_smalls():
    for label in ("A1", "A2", "A3", "B2", "C3", "D4", "G2"):
        star = build_star(catalog(label))
        assert is_eutactic(star)
        assert star.pairings == catalog(label).positive_roots


@pytest.mark.parametrize("label", catalog_labels())
def test_built_star_vectors_are_roots_over_h(label):
    # The star {M r / h} on P, computed here in Fraction from the simple-root
    # form M; build_star derives its vectors from the pairings instead.
    desc = catalog(label)
    n, h = desc.rank, desc.dual_coxeter
    expected = tuple(tuple(sum(Q(desc.norm_gram[i][j]) * r[j] for j in range(n)) / h
                           for i in range(n)) for r in desc.positive_roots)
    star = build_star(desc)
    assert star.pairings == desc.positive_roots
    assert star.vectors == expected


@pytest.mark.parametrize("label", ["A1", "A2", "A4", "B2", "B3", "C3", "D4",
                                   "D5", "E6", "F4", "G2"])
def test_recognize_round_trip(label):
    report = recognize_star(build_star(catalog(label)))
    assert report.ok and bool(report)
    assert report.label == label
    assert len(report.components) == 1
    assert report.components[0]["label"] == label


def test_recognize_is_scale_invariant(a2_star):
    tripled = [tuple(3 * x for x in v) for v in a2_star.vectors]
    report = recognize_star(star_from_vectors(a2_star.lattice, tripled))
    assert report.ok and report.label == "A2"


def test_recognize_reducible(i2):
    report = recognize_star(star_from_vectors(i2, [(1, 0), (0, -1)]))
    assert report.ok
    assert report.label == "A1 x A1"
    assert len(report.components) == 2


def test_recognize_b2_configuration(i2):
    star = star_from_vectors(i2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    report = recognize_star(star)
    assert report.ok and report.label == "B2"


def test_recognize_integer_multiple_failure():
    # A star can hold both v and 2v; its support then fails the first axiom.
    report = recognize_star(star_from_vectors(Lattice([[1]]), [(1,), (2,)]))
    assert not report.ok
    assert report.failure == {"axiom": "integer-multiple", "witness": ((-1,), (-2,))}
    assert report.label is None


def test_recognize_reflection_closure_failure(i2):
    report = recognize_star(star_from_vectors(i2, [(1, 0), (0, 1), (1, 1)]))
    assert not report.ok
    assert report.failure["axiom"] == "reflection-closure"


def test_recognize_cartan_integrality_failure():
    # {±2, ±3} is closed under its reflections (they are all negations) but
    # 2(3,2)/(3,3) = 4/3 is not an integer, so this is not a root system.
    report = recognize_star(star_from_vectors(Lattice([[1]]), [(2,), (-3,)]))
    assert not report.ok
    assert report.failure["axiom"] == "cartan-integrality"


def test_report_truthiness():
    ok = RecognitionReport(ok=True, label="A1", components=[], failure=None)
    bad = RecognitionReport(ok=False, label=None, components=[],
                            failure={"axiom": "integer-multiple", "witness": ()})
    assert ok and not bad


def reference_failure(S, gram):
    """The three axiom checks of recognize_star, in order, in Fraction form,
    on a set S = -S.

    A reference that shares no code with recognize_star: the first failing
    pair in index order, as {"axiom": ..., "witness": ...}, or None if S
    passes all three.
    """
    vs = [tuple(Q(x) for x in v) for v in S]
    l = len(gram)

    def ip(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(l) for j in range(l))

    def fail(axiom, i, j):
        return {"axiom": axiom, "witness": (S[i], S[j])}

    for i, x in enumerate(vs):
        k = next(a for a in range(l) if x[a] != 0)
        for j, y in enumerate(vs):
            c = y[k] / x[k]
            if j != i and c.denominator == 1 and abs(c) >= 2 \
                    and all(y[a] == c * x[a] for a in range(l)):
                return fail("integer-multiple", i, j)
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            c = 2 * ip(x, y) / ip(x, x)
            if tuple(y[a] - c * x[a] for a in range(l)) not in vs:
                return fail("reflection-closure", i, j)
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            if (2 * ip(x, y) / ip(x, x)).denominator != 1:
                return fail("cartan-integrality", i, j)
    return None


@st.composite
def supports(draw):
    """A rank 1-3 positive definite, non-unimodular Gram and a rational family
    S = -S, with perhaps a multiple c v of one vector and a repeated member,
    shuffled.  The multiple is drawn one time in four: with c = +-2 or 3, or
    1/2, which makes v the multiple, it fails the first axiom at once, and
    the other axioms need examples too."""
    l = draw(st.integers(1, 3))
    gram = [[0] * l for _ in range(l)]
    for i in range(l):
        gram[i][i] = draw(st.integers(1, 4))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    minors = [det([row[:k] for row in gram[:k]]) for k in range(1, l + 1)]
    assume(all(m > 0 for m in minors) and minors[-1] != 1)
    entry = st.builds(Q, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    vector = st.tuples(*[entry] * l).filter(any)
    S = []
    for v in draw(st.lists(vector, min_size=1, max_size=4)):
        for w in (v, tuple(-x for x in v)):
            if w not in S:
                S.append(w)
    if draw(st.integers(0, 3)) == 3:
        c = draw(st.sampled_from((Q(2), Q(-2), Q(3), Q(1, 2), Q(2, 3))))
        v = tuple(c * x for x in draw(st.sampled_from(S)))
        S += [v, tuple(-x for x in v)]
    if draw(st.booleans()):
        S.append(draw(st.sampled_from(S)))
    return gram, draw(st.permutations(S))


DAMAGED_LABELS = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4")


@st.composite
def damaged_root_sets(draw):
    """A catalog root set of rank 2-4 with one +-pair +-r removed, or replaced
    by +-w, w = a + b for two roots a != -b, shuffled and moved by a signed
    permutation: up to 24 vectors.  The permutation moves the damage around
    the sorted order of the support."""
    star = build_star(catalog(draw(st.sampled_from(DAMAGED_LABELS))))
    support, _ = support_set(star)
    rng = draw(st.randoms(use_true_random=False))
    r = rng.choice(star.vectors)
    S = [v for v in support if v not in (r, tuple(-x for x in r))]
    if draw(st.booleans()):
        a = rng.choice(support)
        b = rng.choice([v for v in support if v != tuple(-x for x in a)])
        w = tuple(x + y for x, y in zip(a, b))
        S += [w, tuple(-x for x in w)]
    rng.shuffle(S)
    g = star.lattice.gram
    return change_basis(g, S, *random_unimodular(rng, len(g), steps=0))


@settings(max_examples=300, deadline=None)
@given(st.one_of(supports(), damaged_root_sets()))
# c = 2(3, 2)/(3, 3) = 4/3 is not an integer, but the image 2 - 4 = -2 is in
# S, so only integrality fails.
@example(([[2]], [(2,), (-2,), (3,), (-3,)]))
# c = 2/5 for x = (1, 2), y = (1, 0): the image (3/5, -4/5) is not integral.
@example(([[1, 0], [0, 1]], [(1, 2), (-1, -2), (1, 0), (-1, 0)]))
# c = 4/3 for x = (3, 0), y = (2, 1): the image (-2, 1) is integral, not in S.
@example(([[1, 0], [0, 1]], [(3, 0), (-3, 0), (2, 1), (-2, -1)]))
# Delta = {(1, 0)} does not span: the coordinate 1 of (1, 1) is integral but
# does not rebuild it, and the pair ((1, 0), (1, 1)) fails closure.
@example(([[1, 0], [0, 1]], [(1, 0), (-1, 0), (1, 1), (-1, -1)]))
# A1 x A1 spans only a plane of the rank-3 lattice, and passes.
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]))
# The family holds v = 1 and -2v: the witness is (-1, -2), k = 2 on the
# representatives, not (1, -2) or (-1, 2) with k = -2.
@example(([[3]], [(1,), (-2,), (-1,), (2,)]))
# The multiple (2, 0) of (1, 0) sorts into the second half of S; the witness
# is the mirror pair ((-1, 0), (-2, 0)) in the first half.
@example(([[1, 0], [0, 2]], [(1, 0), (0, 1), (2, 0), (-1, 0), (0, -1), (-2, 0)]))
# Two lines carry multiples.  S's first half sorts as (-3, 3), (-2, 0),
# (-1, 0), (-1, 1): the triple of (-1, 1) comes first, but the first failing
# pair in index order is ((-1, 0), (-2, 0)), as (-1, 0) sorts before (-1, 1).
@example(([[2, 1], [1, 2]], [(1, 0), (2, 0), (1, -1), (3, -3),
                             (-1, 0), (-2, 0), (-1, 1), (-3, 3)]))
# B2's roots and +-(3/2) e_i for the form I: s_{3e_1/2} = s_{e_1}, so S is
# closed, but 2((3/2) e_1, e_1 + e_2)/((3/2) e_1, (3/2) e_1) = 4/3.
@example(([[1, 0], [0, 1]], [tuple(c * x for x in v) for c in (1, -1) for v in
                             [(1, 0), (0, 1), (1, 1), (1, -1), (Q(3, 2), 0), (0, Q(3, 2))]]))
# The same in rank 3, with B3's roots: the witness is again the pair
# ((-3/2) e_1, -e_1 - e_2) at 4/3, which is not parallel.
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          [tuple(c * x for x in v) for c in (1, -1) for v in
           [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
            (0, 1, 1), (0, 1, -1), (Q(3, 2), 0, 0), (0, Q(3, 2), 0), (0, 0, Q(3, 2))]]))
def test_recognize_matches_fraction_reference(case):
    """recognize_star on the star of S reports the same first failing axiom
    and witness as the Fraction reference on the sorted support, and labels
    exactly the supports that pass it: their components' root counts and
    ranks add up to those of the support."""
    gram, S = case
    report = recognize_star(support_star(gram, S))
    support = sorted(set(S))
    expected = reference_failure(support, gram)
    if expected is not None:
        assert not report.ok and report.label is None
        assert report.failure == expected
        return
    assert report.ok and report.failure is None
    labels = report.label.split(" x ")
    assert labels == [c["label"] for c in report.components]
    assert sum(2 * len(catalog(lab).positive_roots) for lab in labels) == len(support)
    assert sum(parse_label(lab)[1] for lab in labels) == gauss_jordan_rank(support)


def support_variants(star, rng):
    """Stars with the support of star: its family shuffled, with a nonempty
    set of members negated, with one member repeated, and all three at once."""
    pairings = list(star.pairings)
    flips = set(rng.sample(range(len(pairings)), rng.randrange(1, len(pairings) + 1)))
    negated = [tuple(-x for x in u) if j in flips else u for j, u in enumerate(pairings)]
    repeated = pairings + [rng.choice(pairings)]
    mixed = rng.sample(negated, len(negated)) + [rng.choice(negated)]
    return [EutacticStar(star.lattice, family)
            for family in (rng.sample(pairings, len(pairings)), negated, repeated, mixed)]


def assert_support_only(star, rng):
    report = recognize_star(star)
    support, _ = support_set(star)
    for k, variant in enumerate(support_variants(star, rng)):
        moved, repeats = support_set(variant)
        assert moved == support and (k < 2 or repeats)
        assert recognize_star(variant) == report


@pytest.mark.parametrize("label", catalog_labels())
def test_root_star_report_depends_only_on_the_support(label):
    """The whole report of a catalog star, label, components, simple roots
    and Cartan matrices, is that of every star with the same support."""
    assert_support_only(build_star(catalog(label)), random.Random(label))


@settings(max_examples=100, deadline=None)
@given(damaged_root_sets(), st.randoms(use_true_random=False))
def test_damaged_report_depends_only_on_the_support(case, rng):
    """A damaged root set's report, its failing axiom and witness when it
    fails, does not change when its star's pairings are shuffled, negated or
    repeated."""
    assert_support_only(support_star(*case), rng)


def test_match_type_builds_only_the_returned_entry():
    # The diagram names the type, so no catalog entry is built at all, not
    # even E8's.
    star = build_star(catalog("E8"))
    catalog.cache_clear()
    try:
        assert recognize_star(star).label == "E8"
        assert catalog.cache_info().misses == 0
    finally:
        catalog.cache_clear()


@pytest.mark.parametrize("family", "ABCD")
def test_recognize_names_components_past_the_catalog(family):
    # The catalog stops at rank 8; recognition names every rank.  The star
    # of the positive roots on the lattice with Gram sum r r^T is eutactic.
    cartan = rootsys.cartan_matrix_for(family, 9)
    positive = [r for r in rootsys._close_under_reflections(cartan, 9) if min(r) >= 0]
    gram = [[sum(r[i] * r[j] for r in positive) for j in range(9)] for i in range(9)]
    star = EutacticStar(Lattice(gram), positive)
    assert is_eutactic(star)
    assert recognize_star(star).label == f"{family}9"


def test_match_type_miss_is_internal_error():
    # Recognition passes only components of finite type.  No type has these
    # counts: B2's roots with one length, E6's at rank 9, F4's at rank 3.
    for counts in ((2, 4, 0), (9, 36, 0), (3, 24, 2)):
        with pytest.raises(InternalError, match="matches no type"):
            rootsys._match_type(*counts)


FINITE_TYPES = ([("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 13)]
                + [("C", n) for n in range(3, 13)] + [("D", n) for n in range(4, 13)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
FINITE_IDS = [f"{f}{n}" for f, n in FINITE_TYPES]


def test_match_type_names_every_type_by_its_counts():
    """For all 63 types through rank 16, the closure of the Cartan matrix has
    the classical number of positive roots, the Bourbaki norms are those of
    the Cartan matrix, _match_type names the type from its rank, roots and
    short simple roots, and no two types of one rank share these counts."""
    types = ([("A", n) for n in range(1, 17)] + [("B", n) for n in range(2, 17)]
             + [("C", n) for n in range(3, 17)] + [("D", n) for n in range(4, 17)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    seen = set()
    for family, n in types:
        a = rootsys.cartan_matrix_for(family, n)
        roots = len(rootsys._close_under_reflections(a, n)) // 2
        assert roots == classical_positive_count(family, n)
        # A_ij d_j = 2 <a_i, a_j> = A_ji d_i for the norms d of the a_i.
        d = bourbaki_norms(family, n)
        assert all(a[i][j] * d[j] == a[j][i] * d[i] for i in range(n) for j in range(n))
        counts = (n, roots, sum(x < max(d) for x in d))
        assert rootsys._match_type(*counts) == f"{family}{n}"
        seen.add(counts)
    assert len(types) == len(seen) == 63


def _diagram(n, edges):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return tuple(map(tuple, a))


def _full_orbit(cartan, n, limit):
    # Every simple reflection applied to every root found: the orbit by its
    # definition, or None once it has more than limit roots.
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        r = frontier.pop()
        for i in range(n):
            c = sum(r[k] * cartan[k][i] for k in range(n))
            img = tuple(x - c * (k == i) for k, x in enumerate(r))
            if img not in roots:
                roots.add(img)
                frontier.append(img)
                if len(roots) > limit:
                    return None
    return roots


@pytest.mark.parametrize("family,n", FINITE_TYPES, ids=FINITE_IDS)
def test_closure_matches_the_full_orbit(family, n):
    """The raising steps give the orbit of every finite type up to rank 12,
    also as a sum with A1 x A2 beside it, and None exactly when the orbit
    has more than limit roots."""
    for a in (rootsys.cartan_matrix_for(family, n),
              _block_sum(rootsys.cartan_matrix_for(family, n), _diagram(1, []),
                         _diagram(2, [(0, 1)]))):
        k = len(a)
        orbit = _full_orbit(a, k, math.inf)
        assert rootsys._close_under_reflections(a, k) == orbit
        for limit in (len(orbit), len(orbit) - 1, len(orbit) // 2, 2 * k - 1):
            want = orbit if len(orbit) <= limit else None
            assert rootsys._close_under_reflections(a, k, limit=limit) == want


def test_closure_limit_counts_the_negative_roots():
    # A1 x A1 x A1 takes no raising step: its three negative roots alone
    # take the orbit past a limit of 5.
    a = _diagram(3, [])
    assert rootsys._close_under_reflections(a, 3, limit=5) is None
    assert rootsys._close_under_reflections(a, 3, limit=6) == _full_orbit(a, 3, 6)


def _block_sum(*blocks):
    k = sum(len(b) for b in blocks)
    a, at = [[0] * k for _ in range(k)], 0
    for b in blocks:
        for i, row in enumerate(b):
            a[at + i][at:at + len(b)] = row
        at += len(b)
    return a


@pytest.mark.parametrize("label", catalog_labels())
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_recognize_label_invariant_under_basis_change(label, data):
    """A unimodular basis change (G' = P^T G P, v' = P^-1 v) and a shuffle of S
    keep the label.  P is a signed permutation times up to four elementary
    matrices I + c e_ij."""
    star = build_star(catalog(label))
    support, _ = support_set(star)
    l = star.lattice.rank
    P, P_inv = random_unimodular(data.draw(st.randoms(use_true_random=False)), l)
    assert [[sum(P[i][a] * P_inv[a][j] for a in range(l)) for j in range(l)]
            for i in range(l)] == [[int(i == j) for j in range(l)] for i in range(l)]
    gram, moved = change_basis(star.lattice.gram, data.draw(st.permutations(support)),
                               P, P_inv)
    report = recognize_star(support_star(gram, moved))
    assert report.ok and report.label == label


def reference_simple_roots(S, gram):
    """{sorted simple roots: Cartan matrix} per component, by the rule
    "positive roots that are not a sum of two positive roots".

    The positive system is that of recognize_star: f(v) > 0 for f(v) =
    sum_a v_a t^a with the least t >= 1 such that no f(v) is 0.  Components
    are the classes of simple roots joined by nonzero inner products, and each
    Cartan matrix A_ij = 2(a_i, a_j)/(a_j, a_j) lists its roots in S's order.
    """
    vs = [tuple(Q(x) for x in v) for v in S]
    den = math.lcm(*(x.denominator for v in vs for x in v))
    ints = [tuple(int(x * den) for x in v) for v in vs]
    l = len(gram)
    t = 1
    while any(sum(v[a] * t ** a for a in range(l)) == 0 for v in ints):
        t += 1
    positive = [i for i, v in enumerate(ints) if sum(v[a] * t ** a for a in range(l)) > 0]
    sums = {tuple(a + b for a, b in zip(ints[i], ints[j])) for i in positive for j in positive}
    simple = [i for i in positive if ints[i] not in sums]

    def ip(i, j):
        return sum(vs[i][a] * gram[a][b] * vs[j][b] for a in range(l) for b in range(l))

    out = {}
    left = list(simple)
    while left:
        comp = [left.pop(0)]
        for i in comp:
            joined = [j for j in left if ip(i, j) != 0]
            comp += joined
            left = [j for j in left if j not in joined]
        comp.sort()
        out[tuple(sorted(vs[i] for i in comp))] = tuple(
            tuple(2 * ip(i, j) / ip(j, j) for j in comp) for i in comp)
    return out


def orthogonal_sum(labels):
    """The block-diagonal Gram of the labels' weight lattices and the union of
    their root stars' supports, each padded with zeros."""
    blocks = [build_star(catalog(lab)) for lab in labels]
    l = sum(b.lattice.rank for b in blocks)
    gram = [[0] * l for _ in range(l)]
    S, at = [], 0
    for b in blocks:
        k = b.lattice.rank
        for i in range(k):
            gram[at + i][at:at + k] = b.lattice.gram[i]
        S += [(Q(0),) * at + v + (Q(0),) * (l - at - k) for v in support_set(b)[0]]
        at += k
    return gram, S


@pytest.mark.parametrize("labels", [(lab,) for lab in catalog_labels()]
                         + [("A1", "A1"), ("B2", "G2"), ("A2", "A2", "A1"), ("B3", "C3"),
                            ("E6", "B6"), ("C4", "F4"), ("B2", "G2", "A2")],
                         ids=lambda labels: "x".join(labels))
def test_simple_roots_match_sum_rule(labels):
    """recognize_star's simple roots, read off the pair matrix, and each
    component's Cartan matrix are those of the sum rule on the sorted
    support, in a moved basis with the family shuffled."""
    gram, S = orthogonal_sum(labels)
    rng = random.Random("x".join(labels))
    gram, S = change_basis(gram, S, *random_unimodular(rng, len(gram)))
    rng.shuffle(S)
    report = recognize_star(support_star(gram, S))
    assert report.ok
    assert report.label == " x ".join(sorted(labels))
    assert {tuple(c["simple_roots"]): c["cartan"] for c in report.components} == \
        reference_simple_roots(sorted(S), gram)


class ScanCalled(Exception):
    """Raised in place of the pairwise scan, to show it was reached."""


def no_scan(*args):
    raise ScanCalled


@pytest.mark.parametrize("labels", [(lab,) for lab in catalog_labels()]
                         + [("A1", "A1"), ("B2", "G2"), ("A2", "A2", "A1"), ("B3", "C3"),
                            ("E6", "B6"), ("C4", "F4"), ("B2", "G2", "A2")],
                         ids=lambda labels: "x".join(labels))
def test_certificate_alone_recognizes_root_systems(labels, monkeypatch):
    """With the pairwise scan unreachable, the orbit certificate recognizes
    every catalog label and orthogonal sum, as given and in a moved basis
    with the family shuffled, with the sum rule's simple roots and Cartan
    matrices.  A catalog label's root star, whose family holds only the
    positive roots, gets the same report as the star of its whole support."""
    monkeypatch.setattr(rootsys, "_first_failing_pair", no_scan)
    gram, S = orthogonal_sum(labels)
    rng = random.Random("certificate " + "x".join(labels))
    moved_gram, moved = change_basis(gram, S, *random_unimodular(rng, len(gram)))
    rng.shuffle(moved)
    for g, vs in ((gram, S), (moved_gram, moved)):
        report = recognize_star(support_star(g, vs))
        assert report.ok and report.label == " x ".join(sorted(labels))
        assert {tuple(c["simple_roots"]): c["cartan"] for c in report.components} == \
            reference_simple_roots(sorted(vs), g)
    if len(labels) == 1:
        star = build_star(catalog(labels[0]))
        assert recognize_star(star) == recognize_star(support_star(gram, S))


def test_failed_certificate_on_a_root_system_is_a_simple_system_failure(
        monkeypatch, tmp_path, capsys):
    # The certificate passes on every root system; were it to fail on one,
    # the scan finds no failing pair and the simple roots are the witness.
    monkeypatch.setattr(rootsys, "_orbit_certificate", lambda *args: (None, None))
    star = build_star(catalog("B3"))
    support, _ = support_set(star)
    report = recognize_star(star)
    assert not report.ok and report.label is None
    assert report.failure["axiom"] == "simple-system"
    (simple,) = reference_simple_roots(support, star.lattice.gram)
    assert report.failure["witness"] == simple
    path = tmp_path / "B3.star.json"
    path.write_text(dump_star(star))
    assert main(["recognize", str(path)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["axiom"] == "simple-system" and err == ""


@settings(max_examples=300, deadline=None)
@given(st.one_of(supports(), damaged_root_sets()))
# A2 and +-(a_1 + a_2 + e), e orthogonal to A2: the last vector is not
# simple, and its coordinates on the simple roots are those of a_1 + a_2, but
# S spans more than they do.
@example(([[2, -1, 0], [-1, 2, 0], [0, 0, 1]],
          [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1), (-1, -1, -1)]))
# A2's roots for the form with (a_2, a_2) = 3: 2(a_1, a_2)/(a_2, a_2) = -2/3,
# so a Cartan matrix rounded to A2's would close up on S.
@example(([[2, -1], [-1, 3]], [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]))
def test_certificate_accepts_only_root_systems(case):
    """With the pairwise scan unreachable, recognize_star labels exactly the
    supports that pass the Fraction reference: the certificate rejects every
    support that fails any of the three axioms, integer multiples included,
    and accepts every one that passes."""
    gram, S = case
    star = support_star(gram, S)
    expected = reference_failure(sorted(set(S)), gram)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootsys, "_first_failing_pair", no_scan)
        try:
            report = recognize_star(star)
        except ScanCalled:
            assert expected is not None
            assert expected["axiom"] in ("integer-multiple", "reflection-closure",
                                         "cartan-integrality")
            return
    assert report.ok == (expected is None)
    if expected is not None:
        assert report.failure == expected
