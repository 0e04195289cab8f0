"""Root system catalog and recognition.

The catalog derives everything from the Cartan matrices: roots by reflection
closure, the dual Coxeter number from the proportionality of the squared-sum
form, the weight lattice Gram from exact inversion.  The classical closed-form
tables below are the independent cross-check.
"""

from fractions import Fraction as Q

import pytest

from eustar import rootsys
from eustar.lattice import InputError, InternalError, Lattice
from eustar.rootsys import (RecognitionReport, build_P_lattice, build_star,
                            cartan_matrix, catalog, catalog_labels,
                            parse_label, recognize)
from eustar.star import is_eutactic, support_set


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
