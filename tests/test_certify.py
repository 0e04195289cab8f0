"""Extremality certificates checked against independent oracles.

The certified minimum comes from an exact enumeration of the shadow coset:
min f = min |P(k + h)|^2 / 2 over k in Z^N, searched over the classes
k mod U Z^l with Fincke-Pohst at the fixed radius N/12 (see eustar.certify).
``cells_examined`` counts the classes inside that radius, a property of the
star alone, so it is pinned for small inputs and must not move under a
unimodular change of basis, a reordering or sign flips of the star.

Two oracles share no search code with the certifier.  The grid oracle
evaluates the deficiency on every point of a uniform rational grid: grid values
are true function values, so the grid minimum can never undercut a correct
certificate, and whenever the certified witness lies on the grid the two
minima must agree exactly.  The coset oracle (``coset_oracle``) evaluates the
deficiency on the whole finite coset that holds every minimizer, so minimum
and witness must match it exactly.
"""

import math
import random
from fractions import Fraction as Q
from itertools import product
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eustar import certify
from eustar.certify import (ExtremalityCertificate, b_eval, certify_extremal,
                            deficiency, min_deficiency)
from eustar.lattice import InputError, InternalError, Lattice
from eustar.linalg import sym_elim
from eustar.rootsys import build_P_lattice, build_star, catalog, catalog_labels
from eustar.search import enumerate_stars
from eustar.star import load_star, star_from_vectors

from conftest import rational_point
from test_linalg import det, gauss_jordan_inverse

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def coset_oracle(star):
    """Exact minimum of the deficiency of a eutactic star, with the
    lexicographically least minimizer in [0,1)^l.

    f(x) = min over k in Z^N of |Ux - (k + h)|^2 / 2, with h = (1/2, ..., 1/2).
    At a minimizer x*, choose k with f(x*) = |Ux* - (k + h)|^2 / 2.  That
    quadratic is >= f everywhere and equals f at x*, so x* minimizes it too;
    with U^T U = G this gives x* = G^-1 U^T (k + h) = sum_j (k_j + 1/2) s_j,
    where s_j = G^-1 u_j are the star's vectors.  So every minimizer lies in
    (1/2) sum_j s_j + <s_j> mod Z^l.  The s_j lie in G^-1 Z^l, so this coset is
    finite, of order at most det G; it is built by closure under
    x -> x + s_j mod 1, and the deficiency is evaluated on all of it.
    """
    group, frontier = set(), [(Q(0),) * star.lattice.rank]
    while frontier:
        x = frontier.pop()
        if x not in group:
            group.add(x)
            frontier.extend(_reduce(map(add, x, s)) for s in star.vectors)
    shift = [sum(c) / 2 for c in zip(*star.vectors)]
    coset = (_reduce(map(add, shift, x)) for x in group)
    return min((deficiency(star, w), w) for w in coset)


def _reduce(x):
    return tuple(xi - math.floor(xi) for xi in x)


def grid_min(star, den):
    """Minimum of the deficiency over the grid (1/den)Z^l in [0,1)^l."""
    l = star.lattice.rank
    best = None
    for pt in product(range(den), repeat=l):
        x = tuple(Q(k, den) for k in pt)
        v = deficiency(star, x)
        if best is None or v < best:
            best = v
    return best


def test_b_eval_values():
    assert b_eval(0) == Q(1, 8)
    assert b_eval(Q(1, 2)) == 0
    assert b_eval(Q(1, 3)) == Q(1, 72)
    assert b_eval(Q(1, 4)) == Q(1, 32)
    assert b_eval(Q(7, 3)) == Q(1, 72)
    assert b_eval(Q(-1, 3)) == Q(1, 72)
    assert b_eval(17) == Q(1, 8)


@settings(max_examples=200)
@given(st.fractions(max_denominator=97))
def test_b_eval_properties(x):
    assert b_eval(x + 1) == b_eval(x)
    assert b_eval(-x) == b_eval(x)
    assert Q(0) <= b_eval(x) <= Q(1, 8)


# label: (min, witness).  The threshold is (N - rank)/24 in every case.
EXPECTED = {
    "A1": (Q(0), (Q(1, 2),)),
    "A2": (Q(1, 24), (Q(1, 3), Q(1, 3))),
    "A3": (Q(1, 8), (Q(1, 4), Q(1, 4), Q(1, 4))),
    "B2": (Q(1, 12), (Q(1, 3), Q(1, 6))),
    "B3": (Q(1, 4), (Q(1, 5), Q(1, 5), Q(1, 10))),
    "C3": (Q(1, 4), (Q(1, 8), Q(1, 8), Q(1, 4))),
    "G2": (Q(1, 6), (Q(1, 12), Q(1, 4))),
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_certified_root_stars(label):
    star = build_star(catalog(label))
    cert = certify_extremal(star)
    value, witness = EXPECTED[label]
    assert cert.is_extremal
    assert cert.min_value == value
    assert cert.witness == witness
    assert cert.threshold == Q(star.size - star.lattice.rank, 24)
    assert cert.min_value == cert.threshold
    assert deficiency(star, cert.witness) == cert.min_value


# Grids chosen so the certified witness is a grid point; the grid minimum is
# then forced to equal the certified minimum.
GRID_DENS = {"A1": 2, "A2": 12, "A3": 4, "B2": 12, "B3": 10, "C3": 8, "G2": 12}


@pytest.mark.parametrize("label", sorted(GRID_DENS))
def test_grid_oracle_agrees(label):
    star = build_star(catalog(label))
    assert grid_min(star, GRID_DENS[label]) == EXPECTED[label][0]


def test_grid_oracle_never_undercuts(a2_star, b2_star):
    for star in (a2_star, b2_star):
        cert = certify_extremal(star)
        for den in (5, 7, 9):
            assert grid_min(star, den) >= cert.min_value


def test_two_vector_star_not_extremal(two_vector_star):
    cert = certify_extremal(two_vector_star)
    assert not cert.is_extremal
    assert cert.min_value == 0
    assert cert.threshold == Q(1, 24)
    assert cert.witness == (Q(1, 2),)


def test_min_is_at_most_mean(a2_star, g2_star, two_vector_star):
    # B averages to 1/24 over a period, so the minimum cannot exceed N/24.
    for star in (a2_star, g2_star, two_vector_star):
        value, witness, examined = min_deficiency(star)
        assert 0 <= value <= Q(star.size, 24)
        assert deficiency(star, witness) == value
        assert examined > 0


def test_random_points_never_beat_minimum(a2_star, b2_star):
    rng = random.Random(42)
    for star in (a2_star, b2_star):
        value, witness, _ = min_deficiency(star)
        for _ in range(200):
            x = rational_point(rng, star.lattice.rank)
            assert deficiency(star, x) >= value


def test_witness_reduced_mod_one(g2_star):
    _, witness, _ = min_deficiency(g2_star)
    assert all(0 <= x < 1 for x in witness)


def test_certificate_json(a2_star):
    cert = certify_extremal(a2_star)
    data = cert.to_json_dict()
    assert data == {"extremal": True, "min": "1/24", "threshold": "1/24",
                    "witness": ["1/3", "1/3"]}
    assert isinstance(cert, ExtremalityCertificate)


def test_non_eutactic_star_rejected():
    # The coset formulation leans on eutaxy (U^T U = G is what turns the least
    # squares residual into the projection P), so other stars are refused.
    star = star_from_vectors(Lattice([[2]]), [(Q(1, 2),)])
    with pytest.raises(InputError):
        min_deficiency(star)
    with pytest.raises(InputError):
        certify_extremal(star)


# Leaves #{k mod U Z^l : |P(k + h)|^2 <= N/12}, on the benchmark's seed-0 inputs.
LEAVES = {"G2": 12, "A3": 6, "B3": 24, "A4": 24, "two_vector": 1,
          "G2_weight_nonextremal": 8}


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_leaf_count_pinned(name):
    star = load_star(str(BENCH_INPUTS / f"{name}.star.json"))
    assert certify_extremal(star).cells_examined == LEAVES[name]


@pytest.mark.parametrize("label", catalog_labels(8))
def test_pick_rows_unimodular_on_catalog(label):
    # |det U_I| = 1 iff U_I^-1 is integral; the inverse is the test's own.
    star = build_star(catalog(label))
    rows = certify._pick_rows(star.pairings, star.lattice.rank)[0]
    inv = gauss_jordan_inverse([star.pairings[i] for i in rows])
    assert inv is not None and all(x.denominator == 1 for row in inv for x in row)


# (rows I, |det U_I|) that _pick_rows returns for each star of enumerate_stars
# on a weight lattice, in enumeration order.  The rows fix the order of the
# coset search; a new way of computing U_I^-1 must choose the same ones.  On
# G2 the exchange loop runs: star 1 has greedy rows [0, 1] with |det| 4.
PICKED_ROWS = {
    "G2": [([0, 1], 4), ([1, 2], 2), ([1, 3], 2), ([1, 2], 1), ([1, 2], 2), ([1, 5], 1),
           ([0, 3], 2), ([0, 2], 2), ([1, 2], 1), ([0, 2], 1), ([0, 1], 1), ([0, 1], 1),
           ([0, 1], 1), ([0, 3], 2), ([0, 2], 2), ([0, 2], 1), ([0, 1], 1), ([0, 1], 1),
           ([0, 1], 2), ([1, 5], 1), ([0, 6], 2), ([0, 5], 1), ([0, 5], 1), ([0, 4], 1)],
    "A3": [([0, 1, 2], 4), ([0, 1, 3], 2), ([0, 2, 3], 2), ([0, 1, 2], 1),
           ([0, 2, 3], 2)],
}


@pytest.mark.parametrize("label", sorted(PICKED_ROWS))
def test_pick_rows_pinned_on_weight_lattices(label):
    got = []
    for star in enumerate_stars(build_P_lattice(catalog(label))):
        rows = certify._pick_rows(star.pairings, star.lattice.rank)[0]
        got.append((rows, abs(det([star.pairings[i] for i in rows]))))
    assert got == PICKED_ROWS[label]


@pytest.mark.parametrize("label", sorted(PICKED_ROWS))
def test_pick_rows_inverse_follows_sorted_rows(label):
    # _pick_rows sorts I after the exchanges, so the columns of V must follow.
    for star in enumerate_stars(build_P_lattice(catalog(label))):
        rows, V, v = certify._pick_rows(star.pairings, star.lattice.rank)
        assert rows == sorted(rows)
        inv = gauss_jordan_inverse([star.pairings[i] for i in rows])
        assert tuple(tuple(Q(x, v) for x in row) for row in V) == inv


def _form_value(A, den, num, k):
    z = [den * ki - ni for ki, ni in zip(k, num)]
    return sum(z[i] * A[i][j] * z[j] for i in range(len(z)) for j in range(len(z)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_close_points_matches_box(data):
    """_close_points lists exactly the k with q(k) = z^T A z <= bound, z = den k - num.
    The bound is q(k0) for a drawn k0, so at least one point lies on it."""
    n = data.draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    b = [[data.draw(entries) for _ in range(n)] for _ in range(n + 1)]
    diag = [data.draw(st.integers(0, 2)) for _ in range(n)]
    A = [[sum(r[i] * r[j] for r in b) + diag[i] * (i == j) for j in range(n)]
         for i in range(n)]
    assume(det(A) > 0)
    den = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    num = [data.draw(st.integers(-2 * den, 2 * den)) for _ in range(n)]
    k0 = tuple(round(Q(x, den)) + data.draw(st.integers(-1, 1)) for x in num)
    bound = _form_value(A, den, num, k0)
    # Over z^T A z <= bound, |z_i| <= sqrt(bound (A^-1)_ii): a box that holds every point.
    inv = gauss_jordan_inverse(A)
    box = []
    for i in range(n):
        s = math.isqrt(math.ceil(bound * inv[i][i])) + 1
        box.append(range((num[i] - s) // den, (num[i] + s) // den + 2))
    want = {(k, q) for k in product(*box) if (q := _form_value(A, den, num, k)) <= bound}
    got = list(certify._close_points(sym_elim(A), den, num, bound))
    assert len(got) == len(set(got))
    assert set(got) == want
    assert (k0, bound) in want


def _gram(draw):
    rank = draw(st.integers(1, 3))
    diag, off = (5, 3) if rank <= 2 else (3, 1)
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = draw(st.integers(1, diag))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-off, off))
    try:
        return Lattice(g)
    except InputError:  # not positive definite
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_min_deficiency_matches_coset_oracle(data):
    stars = enumerate_stars(_gram(data.draw))
    assume(stars)
    star = stars[data.draw(st.integers(0, len(stars) - 1))]
    value, witness, _ = min_deficiency(star)
    assert (value, witness) == coset_oracle(star)


@pytest.mark.parametrize("label", ["B4", "C4", "D4"])
def test_rank4_catalog_matches_coset_oracle(label):
    star = build_star(catalog(label))
    assert min_deficiency(star)[:2] == coset_oracle(star)


METAMORPHIC_STARS = ("A2", "B2", "G2", "A3", "B3", "two_vector",
                     "G2_weight_nonextremal")


def _metamorphic_star(name):
    if name == "two_vector":
        return star_from_vectors(Lattice([[2]]), [(Q(1, 2),), (Q(1, 2),)])
    if name == "G2_weight_nonextremal":
        return load_star(str(BENCH_INPUTS / f"{name}.star.json"))
    return build_star(catalog(name))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_metamorphic_basis_order_signs(data):
    """A unimodular basis change P (new basis b P), a shuffle of the star and
    sign flips of its vectors keep the minimum and the leaf count.  P is a
    signed permutation times up to four elementary matrices I + c e_ij.
    f'(x') = f(P x'), so minimizers map by P^-1 mod 1; with P the identity the
    deficiency is the same function and the witness must not move at all."""
    star = _metamorphic_star(data.draw(st.sampled_from(METAMORPHIC_STARS)))
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
    identity = [[int(i == j) for j in range(l)] for i in range(l)]
    assert [[sum(P[i][a] * P_inv[a][j] for a in range(l)) for j in range(l)]
            for i in range(l)] == identity
    g = star.lattice.gram
    gram = [[int(sum(P[a][i] * g[a][b] * P[b][j] for a in range(l) for b in range(l)))
             for j in range(l)] for i in range(l)]
    order = data.draw(st.permutations(range(star.size)))
    flips = data.draw(st.lists(st.sampled_from((1, -1)), min_size=star.size,
                               max_size=star.size))
    vectors = [tuple(flip * sum(P_inv[i][a] * star.vectors[j][a] for a in range(l))
                     for i in range(l)) for j, flip in zip(order, flips)]
    moved = star_from_vectors(Lattice(gram), vectors)

    before, after = certify_extremal(star), certify_extremal(moved)
    assert after.min_value == before.min_value
    assert after.cells_examined == before.cells_examined
    mapped = _reduce(sum(P_inv[i][a] * before.witness[a] for a in range(l))
                     for i in range(l))
    assert deficiency(moved, mapped) == after.min_value
    back = _reduce(sum(P[i][a] * after.witness[a] for a in range(l)) for i in range(l))
    assert deficiency(star, back) == before.min_value
    if P == identity:
        assert after.witness == before.witness


def test_broken_witness_check_raises_internal_error(g2_star, monkeypatch):
    monkeypatch.setattr(certify, "deficiency", lambda star, x: Q(-1))
    with pytest.raises(InternalError):
        min_deficiency(g2_star)
    assert not issubclass(InternalError, InputError)
