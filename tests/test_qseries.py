"""Fourier expansions checked against product-side oracles.

theta_factor, a test-local oracle, builds one theta series from its explicit
sum over odd indices.  product_side_theta multiplies out the corresponding
infinite product directly, factor by factor, sharing no code with it.
Likewise the kernel's eta coefficients, from the pentagonal-number
recurrence, are compared against a naive expansion of prod (1 - q^n), and
eta_power, the eta factor of the reference fold, raises that naive expansion
(or its inverse) to the k-th power by repeated multiplication.

theta_block multiplies its factors on packed integer rows, starting from the
eta row, in the one product kernel of the package.  reference_multiply below
is the plain pairwise product on (n24, w) tuples, and the block's reference
is an eta-first fold of it; the two must agree term for term, on catalog
stars and on random eutactic stars with repeated, antipodal and
non-primitive vectors.
The kernel's set-bit decode is compared against reference_decode, which
reads a row one slot at a time from slot 0; its slot width against a
brute-force count of factor-row choices per slot; and its fold order against
reference_fold_order, which recounts every pair of taken vectors at each step.
elliptic_mismatches checks a block against the Jacobi elliptic law, which
shares no code with the kernel or the pairwise product.
The norm checks (heat, holomorphy, singular shell) work on an integer matrix;
they are compared against w^T G^-1 w / z_den^2 evaluated in Fraction with
the Gauss-Jordan inverse of test_linalg.  With that inverse, the least
2n - (l, l) of a block is compared against the minimum deficiency that
eustar.certify certifies.
"""

import hashlib
import itertools
import math
import operator
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eustar import qseries
from eustar.certify import min_deficiency
from eustar.lattice import InputError, Lattice
from eustar.qseries import (DEFAULT_ORDER, FourierSeries, check_antisymmetry,
                            check_holomorphic, check_singular_support, dump_series,
                            heat_apply, reflect_series, theta_block)
from eustar.rootsys import build_P_lattice, build_star, catalog
from eustar.search import enumerate_stars
from eustar.star import star_from_pairings, star_from_vectors

from conftest import CORPUS_GRAMS, random_unimodular, support_set
from test_linalg import gauss_jordan_inverse


def theta_factor(star, j, n24_max=DEFAULT_ORDER):
    """The odd theta series attached to star vector j (sum side)."""
    if not 0 <= j < star.size:
        raise InputError(f"theta_factor: no vector {j} in a star of size {star.size}")
    u = star.pairings[j]
    terms = {}
    k = 0
    while 3 * (2 * k + 1) ** 2 <= n24_max:
        for odd in (2 * k + 1, -(2 * k + 1)):
            # (-1)^k for odd = 2k+1; oddness of the index pairs +odd with -odd
            # at the opposite sign, keeping the series odd in z.
            sign = (1 if k % 2 == 0 else -1) * (1 if odd > 0 else -1)
            terms[(3 * odd * odd, tuple(odd * c for c in u))] = sign
        k += 1
    return FourierSeries(star.lattice, 2, terms, n24_max, character_d=3 % 24)


def product_side_theta(n24_max):
    """q^{1/8} (z^{1/2} - z^{-1/2}) prod_{n>=1} (1 - q^n)(1 - q^n z)(1 - q^n z^{-1}).

    Returns {(n24, m): coeff} where the z-exponent is m/2.  Every factor only
    raises powers of q, so truncating keys above n24_max at each step is exact.
    """
    terms = {(3, 1): 1, (3, -1): -1}
    n = 1
    while 3 + 24 * n <= n24_max:
        for mshift in (0, 2, -2):
            out = dict(terms)
            for (a, m), c in terms.items():
                key = (a + 24 * n, m + mshift)
                if key[0] <= n24_max:
                    v = out.get(key, 0) - c
                    if v:
                        out[key] = v
                    else:
                        del out[key]
            terms = out
        n += 1
    return terms


def naive_euler(order):
    """Coefficients of prod_{n=1}^{order} (1 - q^n), multiplied out term by term."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        for i in range(order, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return coeffs


def convolve(a, b, order):
    """Coefficients 0 ... order of the product of two q-series given as lists."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(order + 1)]


def eta_power(k, n24_max, lat):
    """eta^k = q^(k/24) prod (1 - q^n)^k on lat, every z-exponent 0.

    The naive product, or for k < 0 its inverse series, is multiplied out
    |k| times; no pentagonal numbers are involved."""
    order = (n24_max - k) // 24
    base = naive_euler(max(order, 0))
    if k < 0:
        inv = [1]
        for j in range(1, len(base)):
            inv.append(-sum(base[i] * inv[j - i] for i in range(1, j + 1)))
        base = inv
    p = [1] + [0] * order if order >= 0 else []
    for _ in range(abs(k)):
        p = convolve(p, base, order)
    zero = (0,) * lat.rank
    return FourierSeries(lat, 1, {(k + 24 * j, zero): c for j, c in enumerate(p)},
                         n24_max, character_d=k % 24)


def test_theta_sum_equals_product(a1_star):
    theta = theta_factor(a1_star, 0, 240)
    assert theta.z_den == 2
    got = {(n, w[0]): c for (n, w), c in theta.terms.items()}
    assert got == product_side_theta(240)


def test_theta_factor_frozen(a1_star):
    theta = theta_factor(a1_star, 0, 60)
    assert theta.terms == {(3, (1,)): 1, (3, (-1,)): -1,
                           (27, (3,)): -1, (27, (-3,)): 1}
    assert theta.character_d == 3
    with pytest.raises(InputError):
        theta_factor(a1_star, 1)


def test_theta_factor_scaled_exponents():
    # Pairing vector (2): exponents land on integers, so z_den normalizes to 1.
    star = star_from_vectors(Lattice([[4]]), [(Q(1, 2),)])
    assert star.pairings == ((2,),)
    theta = theta_factor(star, 0, 60)
    assert theta.z_den == 1
    assert theta.terms == {(3, (1,)): 1, (3, (-1,)): -1,
                           (27, (3,)): -1, (27, (-3,)): 1}


def test_eta_against_naive_product():
    assert qseries._eta(1, 50) == naive_euler(50)
    # Every power the reference fold uses, against its repeated product.
    lat = Lattice([[2]])
    for k in range(-12, 13):
        eta = eta_power(k, k + 24 * 10, lat)
        assert eta.terms == {(k + 24 * j, (0,)): c
                             for j, c in enumerate(qseries._eta(k, 10)) if c}, k


def test_eta_inverse_is_partition_series():
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                  176, 231, 297, 385, 490, 627]
    assert qseries._eta(-1, 20) == partitions


def test_eta_times_inverse_is_one():
    assert convolve(qseries._eta(1, 8), qseries._eta(-1, 8), 8) == [1] + [0] * 8


def test_eta_powers_multiply():
    # eta^a eta^b = eta^(a+b), coefficient by coefficient.
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert convolve(qseries._eta(a, 10), qseries._eta(b, 10), 10) == \
                qseries._eta(a + b, 10), (a, b)


def min_n24(s):
    """The lowest exponent of s, or one past its cap when s is zero."""
    return min((n for n, _ in s.terms), default=s.n24_max + 1)


def test_constructor_normalization():
    lat = Lattice([[2, 1], [1, 2]])
    s = FourierSeries(lat, 4, {(0, (2, 2)): 1, (5, (0, 0)): 0}, 10)
    assert s.z_den == 2
    assert s.terms == {(0, (1, 1)): 1}
    empty = FourierSeries(lat, 6, {}, 10)
    assert empty.z_den == 1
    assert empty.is_zero()
    assert min_n24(empty) == 11
    with pytest.raises(InputError):
        FourierSeries(lat, 0, {}, 10)
    with pytest.raises(InputError):
        FourierSeries(lat, 1, {(0, (1,)): 1}, 10)
    with pytest.raises(InputError):
        FourierSeries(lat, 1, {(1, (0, 0)): 1}, 10, character_d=0)


@pytest.mark.parametrize("c", [0.5, 2.0, Decimal("1"), Decimal("0.5"), 1 + 0j, 1j],
                         ids=["float", "float-integral", "Decimal-integral", "Decimal",
                              "complex-real", "complex"])
def test_constructor_rejects_inexact_coefficients(c):
    lat = Lattice([[2]])
    with pytest.raises(InputError, match="not an int or a Fraction"):
        FourierSeries(lat, 1, {(0, (1,)): c}, 10)
    # Also above the cap, where the term itself would be dropped.
    with pytest.raises(InputError, match="not an int or a Fraction"):
        FourierSeries(lat, 1, {(0, (1,)): 1, (24, (1,)): c}, 10)


def trimmed(s, n24_max):
    """s cut to n24_max: the constructor drops the terms above the cap."""
    assert n24_max <= s.n24_max, "a truncated series cannot be extended"
    return FourierSeries(s.lattice, s.z_den, s.terms, n24_max, s.character_d)


def test_trimming():
    lat = Lattice([[2]])
    s = eta_power(1, 100, lat)
    t = trimmed(s, 30)
    assert t.n24_max == 30
    assert all(n <= 30 for n, _ in t.terms)
    assert t.terms == eta_power(1, 30, lat).terms


def test_theta_block_a1_is_single_factor(a1_star):
    # Rank 1 with one vector: the eta exponent is zero, leaving the bare theta.
    # The pairing (2) has only even entries, so its exponents are integers.
    even = star_from_pairings(Lattice([[4]]), [(2,)])
    for star, z_den in ((a1_star, 2), (even, 1)):
        block = theta_block(star, n24_max=120)
        theta = theta_factor(star, 0, 120)
        assert block.terms == theta.terms
        assert (block.z_den, block.character_d) == (z_den, 3)


def test_theta_block_below_lowest_exponent(two_vector_star, a2_star):
    # Every term of a block has n24 >= 3N + (eta - N); below that it is 0.
    for star, eta in ((two_vector_star, 1), (a2_star, 2), (a2_star, -3)):
        low = 3 * star.size + eta - star.size
        for order in (low - 10, low - 1):
            block = theta_block(star, eta_exponent=eta, n24_max=order)
            assert block.is_zero() and block.n24_max == order
            assert block.character_d == low % 24
        assert min_n24(theta_block(star, eta_exponent=eta, n24_max=low)) == low


def test_theta_block_two_vector_frozen(two_vector_star):
    block = theta_block(two_vector_star, n24_max=60)
    assert block.z_den == 1
    assert block.character_d == 5
    assert block.terms == {
        (5, (-1,)): 1, (5, (0,)): -2, (5, (1,)): 1,
        (29, (-2,)): -2, (29, (-1,)): 3, (29, (0,)): -2,
        (29, (1,)): 3, (29, (2,)): -2,
        (53, (-3,)): 1, (53, (-2,)): -2, (53, (-1,)): 4,
        (53, (0,)): -6, (53, (1,)): 4, (53, (2,)): -2, (53, (3,)): 1,
    }


def test_holomorphy_violations_frozen(two_vector_star):
    block = theta_block(two_vector_star, n24_max=60)
    assert check_holomorphic(block) == [
        (5, (-1,), Q(-1, 12)), (5, (1,), Q(-1, 12)),
        (53, (-3,), Q(-1, 12)), (53, (3,), Q(-1, 12)),
    ]
    assert not check_singular_support(block)


def test_singular_support_and_heat(a1_star, a2_star):
    for star in (a1_star, a2_star):
        block = theta_block(star, n24_max=240)
        assert check_singular_support(block)
        assert check_holomorphic(block) == []
        assert heat_apply(block).is_zero()


def test_heat_keeps_off_shell_terms(two_vector_star):
    block = theta_block(two_vector_star, n24_max=60)
    heated = heat_apply(block)
    assert not heated.is_zero()
    # 5/24 - (1/2)/2 = -1/24 on the violating term.
    assert heated.terms[(5, (-1,))] == Q(-1, 24)
    assert (5, (0,)) in heated.terms


class CountingFraction(Q):
    """A Fraction that counts its constructions."""
    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_heat_builds_no_fraction_on_the_shell(monkeypatch, two_vector_star):
    block = theta_block(build_star(catalog("A3")), n24_max=720)
    monkeypatch.setattr(qseries, "Q", CountingFraction)
    CountingFraction.made = 0
    assert heat_apply(block).is_zero()
    assert CountingFraction.made == 0
    # Off the shell, each term keeps its exact value n - (l, l)/2 times c,
    # with (l, l) = w^2 / (2 z_den^2) on the lattice [[2]]; every term of
    # this block is off it, since 12 (l, l) = 6 w^2 and n24 = 5 mod 24.
    block = theta_block(two_vector_star, n24_max=480)
    heated = heat_apply(block)
    want = {(n24, w): (Q(n24, 24) - Q(w[0] ** 2, 4 * block.z_den ** 2)) * c
            for (n24, w), c in block.terms.items()}
    assert heated.terms == {k: c for k, c in want.items() if c}
    assert heated.z_den == block.z_den
    assert len(heated.terms) == len(block.terms) > 0
    assert CountingFraction.made == len(heated.terms)


def test_non_eutactic_block_warns():
    star = star_from_vectors(Lattice([[2]]), [(Q(1, 2),)])
    with pytest.warns(RuntimeWarning, match="non-eutactic"):
        block = theta_block(star, n24_max=60)
    assert not block.is_zero()


def test_reflection_is_an_involution(a2_star):
    block = theta_block(a2_star, n24_max=120)
    v = a2_star.vectors[0]
    twice = reflect_series(reflect_series(block, v), v)
    assert twice.terms == block.terms
    assert twice.z_den == block.z_den


def test_antisymmetry_under_support_reflections(a2_star, b2_star):
    for star in (a2_star, b2_star):
        block = theta_block(star, n24_max=120)
        support, _ = support_set(star)
        for v in support:
            assert check_antisymmetry(block, v)


def test_reflection_needs_lattice_and_nonzero(a2_star):
    block = theta_block(a2_star, n24_max=60)
    with pytest.raises(InputError, match="nonzero"):
        reflect_series(block, (0, 0))
    with pytest.raises(InputError, match="nonzero"):
        check_antisymmetry(block, (0, 0))


def test_dump_series_frozen(a1_star):
    theta = theta_factor(a1_star, 0, 60)
    assert dump_series(theta) == "3 -1/2 -1\n3 1/2 1\n27 -3/2 1\n27 3/2 -1"


def test_default_order():
    assert DEFAULT_ORDER == 480


def reference_multiply(a, b):
    """Pairwise truncated product: every pair of terms, keys (n24, w) tuples."""
    d = a.z_den * b.z_den // math.gcd(a.z_den, b.z_den)
    sa, sb = d // a.z_den, d // b.z_den
    cap = min(a.n24_max + min_n24(b), b.n24_max + min_n24(a))
    char = None
    if a.character_d is not None and b.character_d is not None:
        char = (a.character_d + b.character_d) % 24

    out = {}
    for (n1, w1), c1 in a.terms.items():
        for (n2, w2), c2 in b.terms.items():
            if n1 + n2 <= cap:
                key = (n1 + n2, tuple(x * sa + y * sb for x, y in zip(w1, w2)))
                out[key] = out.get(key, 0) + c1 * c2
    return FourierSeries(a.lattice, d, out, cap, character_d=char)


def eta_first_fold(star, n24_max, eta_exponent, mul):
    """eta^(eta_exponent - N) * theta_1 * ... * theta_N, folded left by mul.

    Eta goes first, and each factor is taken to n24_max minus the lowest
    exponents of the others.  Returns the product and the size of each
    partial product.
    """
    n = star.size
    total_min = 2 * n + eta_exponent
    series = eta_power(eta_exponent - n, n24_max - 3 * n, star.lattice)
    sizes = []
    for j in range(n):
        series = mul(series, theta_factor(star, j, n24_max - total_min + 3))
        sizes.append(len(series.terms))
    return series, sizes


ETA_EXPONENTS = {"rank": lambda star: star.lattice.rank, "zero": lambda star: 0,
                 "N": lambda star: star.size, "N+3": lambda star: star.size + 3}


@pytest.mark.parametrize("label, eta", [
    pytest.param(label, eta, id=label if eta == "rank" else f"{label}-{eta}")
    for label in ("A2", "B2", "G2", "A3") for eta in ETA_EXPONENTS])
def test_theta_block_matches_pairwise_reference(label, eta):
    # theta_block folds the theta factors onto the packed eta row, in its own
    # factor order; the reference is the pairwise product on (n24, w) tuples,
    # folded with eta first in star order.
    star = build_star(catalog(label))
    eta_exponent = ETA_EXPONENTS[eta](star)
    block = theta_block(star, eta_exponent=eta_exponent, n24_max=240)
    want, _ = eta_first_fold(star, 240, eta_exponent, reference_multiply)
    assert want.n24_max >= 240
    want = trimmed(want, 240)
    assert block.terms == want.terms
    assert (block.z_den, block.n24_max, block.character_d) == \
        (want.z_den, want.n24_max, want.character_d)


@pytest.mark.parametrize("vectors", [[(Q(1, 2),), (Q(1, 2),)], [(Q(1, 2),), (Q(-1, 2),)]],
                         ids=["u,u", "u,-u"])
def test_theta_block_with_w_zero_terms_matches_pairwise_reference(vectors):
    # theta(u) theta(+-u) has terms with w = 0, which the half-plane kernel
    # keeps once, unmirrored.
    star = star_from_vectors(Lattice([[2]]), vectors)
    block = theta_block(star, n24_max=480)
    want, _ = eta_first_fold(star, 480, star.lattice.rank, reference_multiply)
    want = trimmed(want, 480)
    assert any(not any(w) for _, w in block.terms)
    assert block.terms == want.terms
    assert (block.z_den, block.n24_max, block.character_d) == \
        (want.z_den, want.n24_max, want.character_d)


@st.composite
def traffic_star(draw):
    """A eutactic star of rank 1-3 on the lattice G = sum u u^T.

    Some u are scaled by 2 or 3, so a factor's z_den may be 1 (every entry
    even) or 2; some are repeated or negated, so products have w = 0 rows.
    """
    rank = draw(st.integers(1, 3))
    pairings = []
    for u in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank).filter(any),
                           min_size=1, max_size=4)):
        u = tuple(draw(st.sampled_from([1, 1, 2, 3])) * x for x in u)
        pairings.append(u)
        copy = draw(st.sampled_from([None, None, 1, -1]))
        if copy:
            pairings.append(tuple(copy * x for x in u))
    gram = [[sum(u[i] * u[j] for u in pairings) for j in range(rank)] for i in range(rank)]
    try:
        lat = Lattice(gram)
    except InputError:  # the u do not span
        assume(False)
    return star_from_pairings(lat, pairings)


@settings(max_examples=150, deadline=None)
@given(traffic_star(), st.data())
def test_product_kernel_matches_pairwise_fold(star, data):
    # theta_block's kernel on the inputs it is built for, against the
    # pairwise product folded with eta first, from orders below the block's
    # lowest exponent up to 240.
    n, rank = star.size, star.lattice.rank
    eta_exponent = data.draw(st.sampled_from([rank, 0, n, n + 3, -data.draw(st.integers(1, 6))]))
    low = 2 * n + eta_exponent
    order = data.draw(st.integers(min(low - 24, 240), 240))
    block = theta_block(star, eta_exponent=eta_exponent, n24_max=order)
    if order < low:
        assert block.is_zero()
        return
    want, _ = eta_first_fold(star, order, eta_exponent, reference_multiply)
    want = trimmed(want, order)
    assert block.terms == want.terms
    assert (block.z_den, block.n24_max, block.character_d) == \
        (want.z_den, want.n24_max, want.character_d)


@pytest.mark.parametrize("label", ["B2", "G2", "A3"])
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_theta_block_metamorphic_order_and_signs(label, data):
    # Each theta factor is odd in z, so negating k vectors scales by (-1)^k.
    # Reordering may change the kernel's fold order (ties go by position),
    # not the block.
    star = build_star(catalog(label))
    block = theta_block(star, n24_max=240)
    order = data.draw(st.permutations(range(star.size)))
    flips = data.draw(st.lists(st.booleans(), min_size=star.size, max_size=star.size))
    vectors = [tuple(-x for x in star.vectors[j]) if flips[j] else star.vectors[j]
               for j in order]
    moved = theta_block(star_from_vectors(star.lattice, vectors), n24_max=240)
    sign = (-1) ** sum(flips)
    assert moved.terms == {k: sign * c for k, c in block.terms.items()}
    assert (moved.z_den, moved.n24_max, moved.character_d) == \
        (block.z_den, block.n24_max, block.character_d)


def test_a3_product_chain_sizes_pinned():
    # Output sizes of eta^-3 * theta_1 * ... * theta_6 at order 720, folded
    # with eta first through the pairwise product: a change to truncation
    # shows up here as a count.  theta_block also starts from eta but takes
    # the theta factors in its own fold order; both must give the same block.
    star = build_star(catalog("A3"))
    series, sizes = eta_first_fold(star, 720, star.lattice.rank, reference_multiply)
    assert sizes == [312, 2872, 24072, 27996, 51110, 2928]
    block = theta_block(star, n24_max=720)
    assert series.terms == block.terms
    assert (series.z_den, series.n24_max, series.character_d) == \
        (block.z_den, block.n24_max, block.character_d)


def test_a3_eta_last_chain_sizes_pinned():
    # A star-order fold, theta_1 ... theta_6 then eta^-3 at order 720.  The
    # kernel on the first k pairings and eta^0 = 1, to the order that keeps
    # the block's slot count, gives the fold's k-th partial product, in
    # whatever order it multiplies those k factors; eta commutes with them,
    # so the kernel's eta-first fold gives the same last product.
    star = build_star(catalog("A3"))
    pairings = star.pairings
    steps = [qseries._product(star.lattice, pairings[:k], 0, 705 + 3 * k) for k in range(2, 7)]
    steps.append(qseries._product(star.lattice, pairings, -3, 720))
    assert [len(s.terms) for s in steps] == [188, 1904, 11832, 32772, 13536, 2928]
    assert steps[-1].n24_max == 720
    assert steps[-1].terms == theta_block(star, n24_max=720).terms


def theta_tuple_counts(n, K):
    """Per slot j, the number of ways to pick one of the 2K + 2 rows of each
    of n theta factors (rows +-k at slot k (k+1)/2) with slots totalling j."""
    return Counter(sum(k // 2 * (k // 2 + 1) // 2 for k in picks)
                   for picks in itertools.product(range(2 * K + 2), repeat=n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_slot_bits_is_the_per_slot_majorant(n, K):
    # The slot width is one bit above the largest count of (factor rows,
    # eta slot) tuples on a slot at or below top, by brute force.
    counts = theta_tuple_counts(n, K)
    for eta_exponent in (-6, -1, 0, 3):
        for top in (K * (K + 1) // 2, K * (K + 1) // 2 + 3):
            eta = qseries._eta(eta_exponent, top)
            most = max(sum(counts[j - i] * abs(c) for i, c in enumerate(eta))
                       for j in range(top + 1))
            assert qseries._slot_bits(n, K, top, eta) == most.bit_length() + 1


@pytest.mark.parametrize("label, order, bits", [
    ("A3", 720, 37), ("B3", 480, 42), ("G2", 1440, 57),
], ids=["A3@720", "B3@480", "G2@1440"])
def test_product_decodes_at_the_per_slot_width(monkeypatch, label, order, bits):
    # The kernel's rows use the width of _slot_bits; the bound over all
    # slots, bitlength((2K+2)^N ||eta||_1) + 1, gave 51, 60 and 73 bits.
    widths = set()
    slots = qseries._slots

    def recording(v, width):
        widths.add(width)
        return slots(v, width)

    monkeypatch.setattr(qseries, "_slots", recording)
    star = build_star(catalog(label))
    theta_block(star, n24_max=order)
    assert widths == {bits}
    top = (order - 2 * star.size - star.lattice.rank) // 24
    K = (math.isqrt(8 * top + 1) - 1) // 2
    eta = qseries._eta(star.lattice.rank - star.size, top)
    assert qseries._slot_bits(star.size, K, top, eta) == bits


@pytest.mark.parametrize("label, order, pairs", [
    ("A3", 720, 15590), ("B3", 480, 24297), ("G2", 1440, 8264),
], ids=["A3@720", "B3@480", "G2@1440"])
def test_product_row_pairs_pinned(monkeypatch, label, order, pairs):
    # The groups each stored row meets: those with t <= top - its lowest slot,
    # over the rows not cut to 0.  Multiplying the eta row in first or last
    # leaves every row's lowest slot, and so this count, as it is.
    count = 0
    accumulate = qseries._accumulate

    def counting(out, outer, groups, top, bits):
        nonlocal count
        outer = list(outer)
        m = 1 << bits * (top + 1)
        for _, v in outer:
            v = (v + (m >> 1)) % m - (m >> 1)
            if v:
                stop = top - qseries._low_slot(v, bits)
                count += sum(t <= stop for t, _, _ in groups)
        accumulate(out, outer, groups, top, bits)

    monkeypatch.setattr(qseries, "_accumulate", counting)
    theta_block(build_star(catalog(label)), n24_max=order)
    assert count == pairs


def signed_sums(a, b):
    """The vectors +-a +-b."""
    return [tuple(s * x + r * y for x, y in zip(a, b)) for s in (1, -1) for r in (1, -1)]


def reference_fold_order(pairings):
    """Each step recounts, over every pair {a, b} of taken vectors, how often
    each remaining u is one of +-a +-b, and takes the first u with the most."""
    order, rest = [], list(range(len(pairings)))
    while rest:
        sums = Counter(w for a, b in itertools.combinations(order, 2)
                       for w in signed_sums(pairings[a], pairings[b]))
        best = max(rest, key=lambda j: sums[tuple(pairings[j])])
        order.append(best)
        rest.remove(best)
    return order


def has_triangle(pairings):
    return any(tuple(u) in signed_sums(a, b) for a, b, u in itertools.permutations(pairings, 3))


FOLD_LABELS = ["A3", "B3", "G2", "F4", "A4", "D4"]


@pytest.mark.parametrize("label", FOLD_LABELS)
def test_fold_order_matches_recounting_reference(label):
    pairings = build_star(catalog(label)).pairings
    order = qseries._fold_order(pairings)
    assert sorted(order) == list(range(len(pairings)))
    assert order == reference_fold_order(pairings)


def test_fold_order_keeps_stars_without_triangles_in_order(two_vector_star):
    stars = [two_vector_star] + [star for gram in CORPUS_GRAMS
                                 for star in enumerate_stars(Lattice(gram))]
    plain = 0
    for star in stars:
        pairings = list(star.pairings)
        order = qseries._fold_order(pairings)
        assert order == reference_fold_order(pairings)
        if not has_triangle(pairings):
            plain += 1
            assert order == list(range(len(pairings)))
    assert plain == 7  # two_vector and six corpus stars have no triangle


def test_fold_order_pinned():
    # A3 closes the triangle of its first two roots, then its sums.
    assert qseries._fold_order(build_star(catalog("A3")).pairings) == [0, 1, 3, 2, 4, 5]
    assert qseries._fold_order(build_star(catalog("B3")).pairings) == \
        [0, 1, 3, 5, 2, 4, 6, 7, 8]


@pytest.mark.parametrize("label", FOLD_LABELS)
def test_fold_order_invariant_under_basis_and_signs(label):
    # A unimodular change of basis (u -> P^T u; with no elementary steps, the
    # bench's signed permutation of the coordinates) and sign flips of the
    # vectors leave the fold order as it is.
    pairings = build_star(catalog(label)).pairings
    want = qseries._fold_order(pairings)
    l = len(pairings[0])
    for seed in range(10):
        rng = random.Random(seed)
        P, _ = random_unimodular(rng, l, steps=seed % 3)
        moved = []
        for u in pairings:
            f = rng.choice((1, -1))
            moved.append(tuple(f * sum(P[i][j] * u[i] for i in range(l)) for j in range(l)))
        assert qseries._fold_order(moved) == want


@pytest.mark.parametrize("label, order, size, z_den, digest", [
    ("A3", 720, 2928, 2, "736a040e1712196aa21c98ab4a4a714c9e0529e5c9ea347885ebc08889bc8da0"),
    ("B3", 480, 2352, 2, "3c7997f11dce4fa683a1f11b88080b0e12cde1db472ec7707fc3fa1309363850"),
    ("G2", 1440, 648, 1, "579b4e041f22020a1ec5d3b61dc574466985da176aa34b15d8bf38fbdd7b7b33"),
], ids=["A3@720", "B3@480", "G2@1440"])
def test_theta_block_dump_digest_frozen(label, order, size, z_den, digest):
    # Frozen sha256 of the dumps, recorded from an eta-first fold of pairwise
    # products: the factor order must not change a byte.
    block = theta_block(build_star(catalog(label)), n24_max=order)
    assert (len(block.terms), block.z_den) == (size, z_den)
    assert hashlib.sha256(dump_series(block).encode()).hexdigest() == digest


def elliptic_mismatches(block, star, span):
    """(mismatches, compared) for the elliptic law of a theta block.

    Shifting z by the lattice point a maps the term (n24, w) to
    (n24 + 24 (w . a) / z_den + 12 a^T G a, w + z_den G a), with the sign
    (-1)^(sum_j u_j . a) of the N odd theta factors; eta does not depend on
    z.  Every a in {-span ... span}^l other than 0 is tried on every stored
    term whose image lies at or below the cap, so an absent image counts
    as a zero coefficient.
    """
    gram, z_den = star.lattice.gram, block.z_den
    mismatches = compared = 0
    for a in itertools.product(range(-span, span + 1), repeat=star.lattice.rank):
        if not any(a):
            continue
        ga = [sum(map(operator.mul, row, a)) for row in gram]
        lift = 12 * sum(map(operator.mul, a, ga))
        sign = (-1) ** sum(sum(map(operator.mul, u, a)) for u in star.pairings)
        for (n24, w), c in block.terms.items():
            shift, rest = divmod(24 * sum(map(operator.mul, w, a)), z_den)
            assert not rest
            if n24 + shift + lift > block.n24_max:
                continue
            compared += 1
            image = (n24 + shift + lift, tuple(x + z_den * y for x, y in zip(w, ga)))
            mismatches += block.terms.get(image, 0) != sign * c
    return mismatches, compared


@pytest.mark.parametrize("label, order, compared", [
    ("A3", 720, 58028), ("B3", 480, 33020), ("G2", 1440, 3828),
], ids=["A3@720", "B3@480", "G2@1440"])
def test_theta_block_obeys_elliptic_law(label, order, compared):
    star = build_star(catalog(label))
    block = theta_block(star, n24_max=order)
    assert elliptic_mismatches(block, star, 1) == (0, compared)


def test_elliptic_law_catches_one_changed_coefficient():
    # The lowest term off by one breaks the law at its images and preimages.
    star = build_star(catalog("A3"))
    block = theta_block(star, n24_max=720)
    terms = dict(block.terms)
    terms[min(terms)] += 1
    moved = FourierSeries(block.lattice, block.z_den, terms, 720, block.character_d)
    assert elliptic_mismatches(moved, star, 1) == (52, 58028)


@settings(max_examples=40, deadline=None)
@given(traffic_star(), st.data())
def test_traffic_blocks_obey_elliptic_law(star, data):
    eta_exponent = data.draw(st.sampled_from([star.lattice.rank, 0, -3]))
    order = data.draw(st.integers(2 * star.size + eta_exponent, 360))
    block = theta_block(star, eta_exponent=eta_exponent, n24_max=order)
    assert elliptic_mismatches(block, star, 1)[0] == 0


def test_a4_theta_block_dump_digest_frozen():
    # Frozen sha256 of the A4@720 dump, recorded with the per-term packed
    # kernel that the row kernel replaced: ten theta factors, then eta^-6.
    block = theta_block(build_star(catalog("A4")), n24_max=720)
    assert (len(block.terms), block.z_den, block.n24_max) == (38760, 1, 720)
    assert hashlib.sha256(dump_series(block).encode()).hexdigest() == \
        "3116579bf0c4344db3825afd005a74469da023f3c9358cede29599205d10bb8e"


@pytest.mark.parametrize("label, order, steps", [
    ("A3", 720, 1464), ("B3", 480, 1176), ("G2", 1440, 324),
], ids=["A3@720", "B3@480", "G2@1440"])
def test_decode_takes_one_step_per_kept_coefficient(monkeypatch, label, order, steps):
    # Each decode step yields one nonzero slot at or below the cap, and the
    # decode emits each stored row's mirror term too: half the block's terms.
    # Stepping through the zero slots between them cost 18,444, 10,128 and
    # 9,972 steps on these blocks.
    yielded = []
    slots = qseries._slots

    def counting(v, bits):
        for j, c in slots(v, bits):
            yielded.append(j)
            yield j, c

    monkeypatch.setattr(qseries, "_slots", counting)
    block = theta_block(build_star(catalog(label)), n24_max=order)
    assert len(yielded) == steps == len(block.terms) // 2


def reference_decode(v, top, bits):
    """(j, c_j) for the nonzero balanced slots j <= top of v, one slot at a time."""
    out = []
    for j in range(top + 1):
        c = v & ((1 << bits) - 1)
        if c >= 1 << (bits - 1):
            c -= 1 << bits
        if c:
            out.append((j, c))
        v = (v - c) >> bits
    return out


@st.composite
def balanced_row(draw):
    """(v, top, bits, slots): a row of balanced slots up to top, mostly zero and
    often extreme, plus arbitrary slots past top.

    The slot width keeps every coefficient below 2^(bits-1) in absolute
    value, and the cut after top relies on that for the highest nonzero
    slot it keeps: below it, a slot may also hold -2^(bits-1).
    """
    bits = draw(st.integers(2, 70))
    half = 1 << (bits - 1)
    digit = st.one_of(st.just(0), st.just(0), st.sampled_from([half - 1, -(half - 1), -half]),
                      st.integers(-half, half - 1))
    slots = draw(st.lists(digit, max_size=12))
    top = draw(st.integers(-3, len(slots) + 2))
    highest = max((j for j, c in enumerate(slots) if c and j <= top), default=None)
    if highest is not None and slots[highest] == -half:
        slots[highest] = -(half - 1)
    v = sum(c << j * bits for j, c in enumerate(slots))
    v += draw(st.integers(-2 ** 200, 2 ** 200)) << bits * max(top + 1, 0)
    kept = [(j, c) for j, c in enumerate(slots) if c and j <= top]
    return v, top, bits, kept


@settings(max_examples=300, deadline=None)
@given(balanced_row())
def test_set_bit_decode_matches_slot_by_slot_reference(row):
    # The decode cuts a row after top, then steps from one set slot to the
    # next: one step per nonzero coefficient, whatever lies past top.
    v, top, bits, kept = row
    # The balanced residue of v mod m keeps the slots <= top (none for m = 1).
    m = 1 << bits * max(top + 1, 0)
    got = list(qseries._slots((v + (m >> 1)) % m - (m >> 1), bits))
    assert got == reference_decode(v, top, bits) == kept


@pytest.mark.parametrize("star", [
    star_from_pairings(Lattice([[3]]), [(1,), (1,), (-1,)]),
    build_star(catalog("A2")),
], ids=["u,u,-u", "A2"])
def test_dense_last_row_at_every_cap(star):
    # The eta power is one dense row, the row the fold starts from: every
    # theta step then cuts it, and each row made from it, at the cap.  The
    # order runs over every value from 24 below the block's lowest exponent
    # to 240 above it, so each cap cuts the eta row at another place.
    low = 2 * star.size + star.lattice.rank
    want, _ = eta_first_fold(star, low + 240, star.lattice.rank, reference_multiply)
    for order in range(low - 24, low + 241):
        block = theta_block(star, n24_max=order)
        cut = trimmed(want, order)
        assert block.terms == cut.terms, order
        assert (block.z_den, block.n24_max, block.character_d) == \
            (cut.z_den, order, cut.character_d)


COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


@st.composite
def non_unimodular_lattice(draw):
    rank = draw(st.integers(1, 3))
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = draw(st.integers(1, 9))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    try:
        lat = Lattice(g)
    except InputError:
        assume(False)
    inv = gauss_jordan_inverse(g)
    # det G = 1 iff every entry of G^-1 is an integer (Cramer's rule, G integral).
    assume(any(x.denominator != 1 for row in inv for x in row))
    return lat, inv


@st.composite
def norm_check_case(draw):
    """(lattice, Gauss-Jordan inverse, terms, z_den) for a non-unimodular lattice."""
    lat, inv = draw(non_unimodular_lattice())
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-30, 100), st.tuples(*[st.integers(-10, 10)] * lat.rank)),
        COEFFS, max_size=10))
    return lat, inv, terms, draw(st.integers(1, 6))


def rational_exponents(s):
    """The terms of s keyed by (n24, w / z_den), free of the stored z_den."""
    return {(n24, tuple(Q(x, s.z_den) for x in w)): c for (n24, w), c in s.terms.items()}


@settings(max_examples=60, deadline=None)
@given(norm_check_case())
# Only (0, (0, 2)) survives the heat operator, and the constructor then stores
# it as (0, (0, 1)) over z_den 3.
@example((Lattice([[6, 1], [1, 1]]), [[Q(1, 5), Q(-1, 5)], [Q(-1, 5), Q(6, 5)]],
          {(0, (0, 2)): 1, (2, (-4, 1)): 1}, 6))
def test_norm_checks_match_fraction_reference(case):
    lat, inv, terms, z_den = case
    n = lat.rank
    s = FourierSeries(lat, z_den, terms, 100)

    def norm(w, z_den):
        return sum(Q(w[i]) * inv[i][j] * w[j] for i in range(n) for j in range(n)) / z_den ** 2

    # heat_apply drops the terms that reach 0, which may shrink z_den.
    assert rational_exponents(heat_apply(s)) == {
        (n24, tuple(Q(x, s.z_den) for x in w)): (Q(n24, 24) - norm(w, s.z_den) / 2) * c
        for (n24, w), c in s.terms.items() if Q(n24, 24) != norm(w, s.z_den) / 2}
    assert check_holomorphic(s) == sorted(
        (n24, w, Q(n24, 12) - norm(w, s.z_den)) for (n24, w) in s.terms
        if Q(n24, 12) < norm(w, s.z_den))
    assert check_singular_support(s) == all(
        Q(n24, 12) == norm(w, s.z_den) for (n24, w) in s.terms)
    # The same exponents moved onto the shell 2n = (l, l), where 12 (l, l) is
    # an integer; dividing out a common content leaves each (l, l) unchanged.
    shell = {(12 * norm(w, s.z_den), w): c for (_, w), c in s.terms.items()
             if (12 * norm(w, s.z_den)).denominator == 1}
    on = FourierSeries(lat, s.z_den, {(int(n24), w): c for (n24, w), c in shell.items()},
                       10 ** 9)
    assert check_singular_support(on)
    assert check_holomorphic(on) == []
    assert heat_apply(on).is_zero()


@settings(max_examples=60, deadline=None)
@given(non_unimodular_lattice(), st.data())
def test_reflect_series_matches_fraction_reference(lat_inv, data):
    # l -> l - 2 (l, v)/(v, v) v on rational exponents w / z_den, where v has
    # pairings G v.  Denominators of the images may share factors with z_den.
    lat, _ = lat_inv
    n = lat.rank
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(-30, 100), st.tuples(*[st.integers(-10, 10)] * n)),
        COEFFS, min_size=1, max_size=10))
    s = FourierSeries(lat, data.draw(st.sampled_from([1, 2, 3, 6])), terms, 100)
    v = data.draw(st.tuples(*[st.integers(-2, 2).map(Q) | st.fractions(-2, 2, max_denominator=3)]
                            * n).filter(any))
    gv = [sum(Q(g) * x for g, x in zip(row, v)) for row in lat.gram]
    vv = sum(x * y for x, y in zip(v, gv))
    want = {}
    for (n24, w), c in s.terms.items():
        t = 2 * sum(Q(x, s.z_den) * y for x, y in zip(w, v)) / vv
        want[(n24, tuple(Q(x, s.z_den) - t * y for x, y in zip(w, gv)))] = c
    image = reflect_series(s, v)
    assert {(n24, tuple(Q(x, image.z_den) for x in w)): c
            for (n24, w), c in image.terms.items()} == want
    back = reflect_series(image, v)
    assert (back.terms, back.z_den) == (s.terms, s.z_den)


def test_reflect_series_fractional_image():
    # G = diag(1, 2), v = (1, 1): w = (1, 0) over 3 maps to (1/3, -4/3) over 3.
    s = FourierSeries(Lattice([[1, 0], [0, 2]]), 3, {(0, (1, 0)): 1}, 10)
    image = reflect_series(s, (1, 1))
    assert (image.z_den, image.terms) == (9, {(0, (1, -4)): 1})


def fraction_reflection(lat, v):
    """l -> l - 2 (l, v)/(v, v) v on rational exponents l, v with pairings G v."""
    gv = [sum(Q(g) * x for g, x in zip(row, v)) for row in lat.gram]
    vv = sum(x * y for x, y in zip(v, gv))

    def reflect(e):
        t = 2 * sum(x * y for x, y in zip(e, v)) / vv
        return tuple(x - t * y for x, y in zip(e, gv))
    return reflect


def reference_antisymmetry(s, v):
    """The series plus its reflection, on rational exponents, sums to 0."""
    reflect = fraction_reflection(s.lattice, v)
    total = {}
    for (n24, e), c in rational_exponents(s).items():
        for key in ((n24, e), (n24, reflect(e))):
            total[key] = total.get(key, 0) + c
    return not any(total.values())


@st.composite
def antisymmetry_case(draw):
    """A series and a rational v: random terms, or f - f o s_v for random f,
    which is odd under s_v, at times with one coefficient then moved off."""
    lat, _ = draw(non_unimodular_lattice())
    n = lat.rank
    v = draw(st.tuples(*[st.integers(-2, 2).map(Q) | st.fractions(-2, 2, max_denominator=3)]
                       * n).filter(any))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-30, 100), st.tuples(*[st.integers(-10, 10)] * n)),
        COEFFS, min_size=1, max_size=8))
    z_den = draw(st.sampled_from([1, 2, 3, 6]))
    if draw(st.booleans()):
        reflect = fraction_reflection(lat, v)
        odd = {}
        for (n24, w), c in terms.items():
            e = tuple(Q(x, z_den) for x in w)
            for key, x in (((n24, e), c), ((n24, reflect(e)), -c)):
                odd[key] = odd.get(key, 0) + x
        odd = {k: c for k, c in odd.items() if c}
        if odd and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(odd)))
            odd[key] += 1
        z_den = math.lcm(*(x.denominator for _, e in odd for x in e))
        terms = {(n24, tuple(int(x * z_den) for x in e)): c for (n24, e), c in odd.items()}
    return FourierSeries(lat, z_den, terms, 100), v


@settings(max_examples=100, deadline=None)
@given(antisymmetry_case())
# The empty series is odd.
@example((FourierSeries(Lattice([[2]]), 1, {}, 100), (Q(1),)))
# G = diag(1, 2), v = (1, 1): the image of (1, 0) over 3 lies over 9, so the
# lone term is not odd; with its image at the opposite sign the series is.
@example((FourierSeries(Lattice([[1, 0], [0, 2]]), 3, {(0, (1, 0)): 1}, 100), (Q(1), Q(1))))
@example((FourierSeries(Lattice([[1, 0], [0, 2]]), 9, {(0, (3, 0)): 1, (0, (1, -4)): -1}, 100),
          (Q(1), Q(1))))
# The B2 block is odd under the reflection in a root, not under (1, 1).
@example((theta_block(build_star(catalog("B2")), n24_max=120), (Q(1), Q(0))))
@example((theta_block(build_star(catalog("B2")), n24_max=120), (Q(1), Q(1))))
def test_check_antisymmetry_matches_fraction_reference(case):
    s, v = case
    assert check_antisymmetry(s, v) == reference_antisymmetry(s, v)



def least_gap(block):
    """The least 2n - (l, l) over the terms of a nonzero block, with the
    Gauss-Jordan inverse of the Gram matrix, cleared to inv / den."""
    inv = gauss_jordan_inverse(block.lattice.gram)
    den = math.lcm(*(x.denominator for row in inv for x in row))
    inv = [[int(x * den) for x in row] for row in inv]
    scale = den * block.z_den ** 2
    # 2n - (l, l) = (n24 scale - 12 w^T inv w) / (12 scale)
    return Q(min(n24 * scale - 12 * sum(a * b * x for a, row in zip(w, inv)
                                         for b, x in zip(w, row))
                 for n24, w in block.terms), 12 * scale)


def certified_gap(star):
    """2 (min f - (N - l)/24), from the certificate of eustar.certify."""
    return 2 * (min_deficiency(star)[0] - Q(star.size - star.lattice.rank, 24))


def differential_stars():
    """Every star of the G2, A3, B3, C3 and A4 weight lattices and of the
    corpus Grams, and the catalog stars of A1, A2, B2, G2, A3, B3 and C3."""
    for label in ("G2", "A3", "B3", "C3", "A4"):
        yield from enumerate_stars(build_P_lattice(catalog(label)))
    for gram in CORPUS_GRAMS:
        yield from enumerate_stars(Lattice(gram))
    for label in ("A1", "A2", "B2", "G2", "A3", "B3", "C3"):
        yield build_star(catalog(label))


def test_block_gap_equals_certified_gap():
    # The least 2n - (l, l) of the block and the certified minimum of the
    # deficiency are two computations of one number.  On these stars the
    # block attains it at its lowest exponent 2N + l or 24 above it, so the
    # holomorphy check agrees with the extremality verdict there.
    stars = list(differential_stars())
    assert len(stars) == 233
    for star in stars:
        block = theta_block(star, n24_max=2 * star.size + star.lattice.rank + 24)
        gap = certified_gap(star)
        assert least_gap(block) == gap, star.pairings
        assert (check_holomorphic(block) == []) == (gap >= 0)


@settings(max_examples=100, deadline=None)
@given(traffic_star(), st.data())
def test_block_never_below_certified_gap(star, data):
    # The lowest terms of the theta factors multiply to a nonzero term at
    # n24 = 2N + l, so a block to any order past it has terms.
    low = 2 * star.size + star.lattice.rank
    block = theta_block(star, n24_max=data.draw(st.integers(low, 240)))
    assert least_gap(block) >= certified_gap(star)
