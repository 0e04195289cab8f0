"""Root system catalog and recognition.

The catalog derives everything from the Cartan matrices: roots by reflection
closure, the dual Coxeter number from the proportionality of the squared-sum
form, the weight lattice Gram as that squared-sum form.  The classical
closed-form tables below are the independent cross-check.
"""

import dataclasses
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eustar import rootsys
from eustar.lattice import InputError, InternalError, Lattice
from eustar.rootsys import (RecognitionReport, build_P_lattice, build_star,
                            cartan_matrix, catalog, catalog_labels,
                            parse_label, recognize)
from eustar.star import is_eutactic, support_set

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
    assert catalog_labels(2) == ["A1", "A2", "B2", "G2"]


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


def test_broken_catalog_check_raises_internal_error(monkeypatch):
    # With every simple root of norm 2, B2's form M_ij = A_ij <a_j, a_j> / 2 is
    # the Cartan matrix itself, which is not symmetric.
    monkeypatch.setattr(rootsys, "_norms", lambda family, n: (Q(2),) * n)
    catalog.cache_clear()
    try:
        with pytest.raises(InternalError, match="not symmetric"):
            catalog("B2")
    finally:
        catalog.cache_clear()


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


def test_cartan_matrix_of_vectors():
    lat = Lattice([[2, 1], [1, 2]])
    a = cartan_matrix([(1, 0), (0, 1)], lat)
    # Both basis vectors have norm 2 and inner product 1.
    assert a == ((2, 1), (1, 2))
    with pytest.raises(InputError):
        cartan_matrix([(0, 0)], lat)


@pytest.mark.parametrize("label", ["A1", "A2", "A4", "B2", "B3", "C3", "D4",
                                   "D5", "E6", "F4", "G2"])
def test_recognize_round_trip(label):
    star = build_star(catalog(label))
    support, _ = support_set(star)
    report = recognize(support, star.lattice)
    assert report.ok and bool(report)
    assert report.label == label
    assert len(report.components) == 1
    assert report.components[0]["label"] == label


def test_recognize_is_scale_invariant(a2_star):
    support, _ = support_set(a2_star)
    tripled = [tuple(3 * x for x in v) for v in support]
    report = recognize(tripled, a2_star.lattice)
    assert report.ok and report.label == "A2"


def test_recognize_reducible(i2):
    report = recognize([(1, 0), (-1, 0), (0, 1), (0, -1)], i2)
    assert report.ok
    assert report.label == "A1 x A1"
    assert len(report.components) == 2


def test_recognize_b2_configuration(i2):
    vecs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    s = vecs + [tuple(-x for x in v) for v in vecs]
    report = recognize(s, i2)
    assert report.ok and report.label == "B2"


def test_recognize_integer_multiple_failure():
    lat = Lattice([[1]])
    report = recognize([(1,), (-1,), (2,), (-2,)], lat)
    assert not report.ok
    assert report.failure["axiom"] == "integer-multiple"
    assert report.label is None


def test_recognize_distinctness_failure():
    lat = Lattice([[1]])
    report = recognize([(1,), (1,), (-1,), (-1,)], lat)
    assert not report.ok
    assert report.failure["axiom"] == "distinct"


def test_recognize_reflection_closure_failure(i2):
    vecs = [(1, 0), (0, 1), (1, 1)]
    s = vecs + [tuple(-x for x in v) for v in vecs]
    report = recognize(s, i2)
    assert not report.ok
    assert report.failure["axiom"] == "reflection-closure"


def test_recognize_cartan_integrality_failure():
    # {±2, ±3} is closed under its reflections (they are all negations) but
    # 2(3,2)/(3,3) = 4/3 is not an integer, so this is not a root system.
    lat = Lattice([[1]])
    report = recognize([(2,), (-2,), (3,), (-3,)], lat)
    assert not report.ok
    assert report.failure["axiom"] == "cartan-integrality"


def test_recognize_preconditions(i2):
    with pytest.raises(InputError):
        recognize([], i2)
    with pytest.raises(InputError):
        recognize([(0, 0)], i2)
    with pytest.raises(InputError):
        recognize([(1, 0), (0, 1)], i2)  # negations missing


def test_report_truthiness():
    ok = RecognitionReport(ok=True, label="A1", components=[], failure=None)
    bad = RecognitionReport(ok=False, label=None, components=[],
                            failure={"axiom": "distinct", "witness": ()})
    assert ok and not bad


def reference_failure(S, gram):
    """The four axiom checks of recognize, in order, in Fraction form.

    A reference that shares no code with recognize: the first failing pair in
    index order, as {"axiom": ..., "witness": ...}, or None if S passes all four.
    """
    vs = [tuple(Q(x) for x in v) for v in S]
    l, n = len(gram), len(vs)

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
    for j in range(n):
        if vs[j] in vs[:j]:
            return fail("distinct", vs.index(vs[j]), j)
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
    """A rank 1-3 positive definite, non-unimodular Gram and a rational S = -S,
    with perhaps a multiple c v of one vector and a duplicate, shuffled."""
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
    if draw(st.booleans()):
        c = draw(st.sampled_from((Q(2), Q(-2), Q(3), Q(1, 2), Q(2, 3))))
        v = tuple(c * x for x in draw(st.sampled_from(S)))
        S += [v, tuple(-x for x in v)]
    if draw(st.booleans()):
        S.append(draw(st.sampled_from(S)))
    return gram, draw(st.permutations(S))


@settings(max_examples=300, deadline=None)
@given(supports())
def test_recognize_matches_fraction_reference(case):
    """recognize reports the same first failing axiom and witness as the
    Fraction reference, and labels exactly the supports that pass it: their
    components' root counts and ranks add up to those of S."""
    gram, S = case
    report = recognize(S, Lattice(gram))
    expected = reference_failure(S, gram)
    if expected is not None:
        assert not report.ok and report.label is None
        assert report.failure == expected
        return
    assert report.ok and report.failure is None
    labels = report.label.split(" x ")
    assert labels == [c["label"] for c in report.components]
    assert sum(2 * len(catalog(lab).positive_roots) for lab in labels) == len(S)
    assert sum(parse_label(lab)[1] for lab in labels) == gauss_jordan_rank(S)


def test_match_type_builds_only_the_returned_entry():
    # D8 has E8's edge profile (degrees 1, 1, 1, 2, 2, 2, 2, 3), but it is not
    # isomorphic to E8, so its catalog entry must not be built.
    star = build_star(catalog("E8"))
    support, _ = support_set(star)
    catalog.cache_clear()
    try:
        assert recognize(support, star.lattice).label == "E8"
        assert catalog.cache_info().misses == 1
    finally:
        catalog.cache_clear()


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
    perm = data.draw(st.permutations(range(l)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=l, max_size=l))
    P = [[signs[j] if i == perm[j] else 0 for j in range(l)] for i in range(l)]
    P_inv = [list(col) for col in zip(*P)]  # P^-1 = P^T for a signed permutation
    if l > 1:
        pairs = [(i, j) for i in range(l) for j in range(l) if i != j]
        for _ in range(data.draw(st.integers(0, 4))):
            i, j = data.draw(st.sampled_from(pairs))
            c = data.draw(st.sampled_from((1, -1)))
            for row in P:  # P <- P (I + c e_ij)
                row[j] += c * row[i]
            # P^-1 <- (I - c e_ij) P^-1
            P_inv[i] = [x - c * y for x, y in zip(P_inv[i], P_inv[j])]
    assert [[sum(P[i][a] * P_inv[a][j] for a in range(l)) for j in range(l)]
            for i in range(l)] == [[int(i == j) for j in range(l)] for i in range(l)]
    g = star.lattice.gram
    gram = [[int(sum(P[a][i] * g[a][b] * P[b][j] for a in range(l) for b in range(l)))
             for j in range(l)] for i in range(l)]
    moved = [tuple(sum(P_inv[i][a] * v[a] for a in range(l)) for i in range(l))
             for v in data.draw(st.permutations(support))]
    report = recognize(moved, Lattice(gram))
    assert report.ok and report.label == label
