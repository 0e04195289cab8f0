"""Fourier expansions checked against product-side oracles.

theta_factor builds the theta series from its explicit sum over odd indices.
The oracle below multiplies out the corresponding infinite product directly,
factor by factor, sharing no code with the implementation.  Likewise the
pentagonal-number eta coefficients are compared against a naive expansion of
prod (1 - q^n).

multiply works on packed integer keys; reference_multiply below is the plain
pairwise product on (n24, w) tuples, and the two must agree term for term.
theta_block runs the same packed kernel over all its factors, eta last; its
reference is an eta-first fold of reference_multiply.
The norm checks (heat, holomorphy, singular shell) work on an integer matrix;
they are compared against w^T G^-1 w / z_den^2 evaluated in Fraction with a
test-local inverse.
"""

import hashlib
import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eustar import qseries
from eustar.lattice import InputError, Lattice
from eustar.qseries import (DEFAULT_ORDER, FourierSeries, add,
                            check_antisymmetry, check_holomorphic,
                            check_singular_support, dump_series, eta_power,
                            heat_apply, multiply, reflect_series, theta_block,
                            theta_factor)
from eustar.rootsys import build_star, catalog
from eustar.star import star_from_vectors, support_set


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
    order = 50
    eta = eta_power(1, n24_max=1 + 24 * order)
    coeffs = naive_euler(order)
    assert eta.terms == {(1 + 24 * j, ()): c for j, c in enumerate(coeffs) if c}
    assert eta.character_d == 1
    assert eta.lattice is None


def test_eta_inverse_is_partition_series():
    inv = eta_power(-1, n24_max=-1 + 24 * 20)
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                  176, 231, 297, 385, 490, 627]
    assert [inv.terms.get((-1 + 24 * j, ()), 0) for j in range(21)] == partitions


def test_eta_times_inverse_is_one():
    a = eta_power(1, 200)
    b = eta_power(-1, 200)
    prod = multiply(a, b)
    assert prod.terms == {(0, ()): 1}
    assert prod.character_d == 0


def test_eta_powers_multiply():
    # eta^a eta^b = eta^(a+b), up to the product's cap.
    for a in range(-12, 13):
        for b in range(-12, 13):
            prod = multiply(eta_power(a, 240), eta_power(b, 240))
            want = eta_power(a + b, prod.n24_max)
            assert prod.terms == want.terms, (a, b)
            assert prod.character_d == want.character_d


def test_constructor_normalization():
    lat = Lattice([[2, 1], [1, 2]])
    s = FourierSeries(lat, 4, {(0, (2, 2)): 1, (5, (0, 0)): 0}, 10)
    assert s.z_den == 2
    assert s.terms == {(0, (1, 1)): 1}
    empty = FourierSeries(lat, 6, {}, 10)
    assert empty.z_den == 1
    assert empty.is_zero()
    assert empty.min_n24 == 11
    with pytest.raises(InputError):
        FourierSeries(lat, 0, {}, 10)
    with pytest.raises(InputError):
        FourierSeries(lat, 1, {(0, (1,)): 1}, 10)
    with pytest.raises(InputError):
        FourierSeries(lat, 1, {(1, (0, 0)): 1}, 10, character_d=0)


def test_trimming():
    s = eta_power(1, 100)
    t = s.trimmed(30)
    assert t.n24_max == 30
    assert all(n <= 30 for n, _ in t.terms)
    with pytest.raises(InputError):
        t.trimmed(60)


def test_multiply_cap_bookkeeping():
    a = FourierSeries(None, 1, {(3, ()): 1}, 100)
    b = FourierSeries(None, 1, {(1, ()): 1}, 50)
    prod = multiply(a, b)
    assert prod.n24_max == min(100 + 1, 50 + 3)
    assert prod.terms == {(4, ()): 1}


def test_multiply_commutes(a1_star):
    theta = theta_factor(a1_star, 0, 120)
    eta = eta_power(2, 120)
    ab = multiply(theta, eta)
    ba = multiply(eta, theta)
    assert ab.terms == ba.terms
    assert ab.z_den == ba.z_den == 2
    assert ab.character_d == 5


def test_add_cancellation(a1_star):
    theta = theta_factor(a1_star, 0, 120)
    minus = FourierSeries(theta.lattice, theta.z_den,
                          {k: -c for k, c in theta.terms.items()}, 120, 3)
    assert add(theta, minus).is_zero()
    assert add(theta, theta).terms == {k: 2 * c for k, c in theta.terms.items()}


def test_mismatched_lattices_rejected(a1_star, a2_star):
    with pytest.raises(InputError):
        multiply(theta_factor(a1_star, 0, 60), theta_factor(a2_star, 0, 60))


def test_theta_block_a1_is_single_factor(a1_star):
    # Rank 1 with one vector: the eta exponent is zero, leaving the bare theta.
    block = theta_block(a1_star, n24_max=120)
    theta = theta_factor(a1_star, 0, 120)
    assert block.terms == theta.terms
    assert block.character_d == 3


def test_theta_block_below_lowest_exponent(two_vector_star, a2_star):
    # Every term of a block has n24 >= 3N + (eta - N); below that it is 0.
    for star, eta in ((two_vector_star, 1), (a2_star, 2), (a2_star, -3)):
        low = 3 * star.size + eta - star.size
        for order in (low - 10, low - 1):
            block = theta_block(star, eta_exponent=eta, n24_max=order)
            assert block.is_zero() and block.n24_max == order
            assert block.character_d == low % 24
        assert theta_block(star, eta_exponent=eta, n24_max=low).min_n24 == low


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


def test_reflection_needs_lattice_and_nonzero():
    with pytest.raises(InputError):
        reflect_series(eta_power(1, 60), (1,))


def test_dump_series_frozen(a1_star):
    theta = theta_factor(a1_star, 0, 60)
    assert dump_series(theta) == "3 -1/2 -1\n3 1/2 1\n27 -3/2 1\n27 3/2 -1"
    with pytest.raises(InputError):
        dump_series(eta_power(1, 60))


def test_default_order():
    assert DEFAULT_ORDER == 480


def reference_multiply(a, b):
    """Pairwise truncated product: every pair of terms, keys (n24, w) tuples."""
    lat = a.lattice if a.lattice is not None else b.lattice
    width = lat.rank if lat is not None else 0
    d = a.z_den * b.z_den // math.gcd(a.z_den, b.z_den)
    sa, sb = d // a.z_den, d // b.z_den
    cap = min(a.n24_max + b.min_n24, b.n24_max + a.min_n24)
    char = None
    if a.character_d is not None and b.character_d is not None:
        char = (a.character_d + b.character_d) % 24

    def widen(w, scale):
        return tuple(x * scale for x in w) if w else (0,) * width

    out = {}
    for (n1, w1), c1 in a.terms.items():
        for (n2, w2), c2 in b.terms.items():
            if n1 + n2 <= cap:
                key = (n1 + n2, tuple(x + y for x, y in zip(widen(w1, sa), widen(w2, sb))))
                out[key] = out.get(key, 0) + c1 * c2
    return FourierSeries(lat, d, out, cap, character_d=char)


COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


@st.composite
def random_series(draw, lat):
    width = lat.rank if lat is not None else 0
    char = draw(st.one_of(st.none(), st.integers(0, 23)))
    if char is None:
        n24s = st.integers(-30, 200)
    else:
        n24s = st.integers(-2, 8).map(lambda j: char + 24 * j)
    ws = st.tuples(*[st.integers(-40, 40)] * width)
    terms = draw(st.dictionaries(st.tuples(n24s, ws), COEFFS, max_size=12))
    ns = sorted(n for n, _ in terms)
    # A cap inside the drawn exponents cuts the series, and the product, midway.
    cap = draw(st.integers(ns[0], ns[-1]) if ns else n24s)
    return FourierSeries(lat, draw(st.sampled_from([1, 2, 3, 6])), terms, cap, char)


def mirrored(s):
    """s(q, -z): each odd-z term of s * mirrored(s) cancels to zero."""
    return FourierSeries(s.lattice, s.z_den,
                         {(n, w): c * (-1) ** sum(w) for (n, w), c in s.terms.items()},
                         s.n24_max, s.character_d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_multiply_matches_pairwise_reference(data):
    width = data.draw(st.integers(0, 3))
    lat = Lattice([[int(i == j) for j in range(width)] for i in range(width)]) if width else None
    a = data.draw(random_series(lat))
    if data.draw(st.booleans()):
        b = mirrored(a)
    else:
        # Either operand may be lattice-free (w = ()) next to a lattice series.
        b = data.draw(random_series(None if data.draw(st.booleans()) else lat))
    if data.draw(st.booleans()):
        a = data.draw(random_series(None))
    want = reference_multiply(a, b)
    for got in (multiply(a, b), multiply(b, a)):
        assert got.terms == want.terms
        assert (got.z_den, got.n24_max, got.character_d) == \
            (want.z_den, want.n24_max, want.character_d)
        assert got.lattice is want.lattice


def eta_first_fold(star, n24_max, eta_exponent, mul):
    """eta^(eta_exponent - N) * theta_1 * ... * theta_N, folded left by mul.

    Eta goes first, and each factor is taken to n24_max minus the lowest
    exponents of the others.  Returns the product and the size of each
    partial product.
    """
    n = star.size
    total_min = 2 * n + eta_exponent
    series = eta_power(eta_exponent - n, n24_max - 3 * n)
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
    # theta_block multiplies eta last in one packed product; the reference is
    # the pairwise product on (n24, w) tuples, folded with eta first.
    star = build_star(catalog(label))
    eta_exponent = ETA_EXPONENTS[eta](star)
    block = theta_block(star, eta_exponent=eta_exponent, n24_max=240)
    want, _ = eta_first_fold(star, 240, eta_exponent, reference_multiply)
    assert want.n24_max >= 240
    want = want.trimmed(240)
    assert block.terms == want.terms
    assert (block.z_den, block.n24_max, block.character_d) == \
        (want.z_den, want.n24_max, want.character_d)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_kernel_matches_pairwise_fold(data):
    # The kernel's running min is the sum of the operands' mins, a lower bound
    # on the partial product's, so its cap may sit below the fold's.  Up to
    # that cap the two agree term for term.
    width = data.draw(st.integers(0, 2))
    lat = Lattice([[int(i == j) for j in range(width)] for i in range(width)]) if width else None
    factors = [data.draw(random_series(None if data.draw(st.booleans()) else lat))
               for _ in range(data.draw(st.integers(1, 4)))]
    got = qseries._product(factors)
    want = factors[0]
    for s in factors[1:]:
        want = reference_multiply(want, s)
    assert got.n24_max <= want.n24_max
    want = want.trimmed(got.n24_max)
    assert got.terms == want.terms
    assert (got.z_den, got.character_d) == (want.z_den, want.character_d)


@pytest.mark.parametrize("label", ["B2", "G2", "A3"])
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_theta_block_metamorphic_order_and_signs(label, data):
    # Each theta factor is odd in z, so negating k vectors scales by (-1)^k.
    # Reordering changes the caps of the intermediate products, not the block.
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
    # with eta first through multiply: a change to truncation shows up here
    # as a count.  theta_block multiplies eta last; both orders must give the
    # same block.
    star = build_star(catalog("A3"))
    series, sizes = eta_first_fold(star, 720, star.lattice.rank, multiply)
    assert sizes == [312, 2872, 24072, 27996, 51110, 2928]
    block = theta_block(star, n24_max=720)
    assert series.terms == block.terms
    assert (series.z_den, series.n24_max, series.character_d) == \
        (block.z_den, block.n24_max, block.character_d)


def test_a3_eta_last_chain_sizes_pinned():
    # theta_block's own order, theta_1 ... theta_6 then eta^-3 at order 720.
    # The kernel on the first k factors stops at the fold's k-th partial
    # product, cap included, so each prefix gives one step's size.
    star = build_star(catalog("A3"))
    total_min = 3 * 6 - 3
    factors = [theta_factor(star, j, 720 - total_min + 3) for j in range(6)]
    factors.append(eta_power(-3, 720 - total_min - 3))
    steps = [qseries._product(factors[:k]) for k in range(2, 8)]
    assert [len(s.terms) for s in steps] == [188, 1904, 11832, 32772, 13536, 2928]
    assert steps[-1].n24_max == 720
    assert steps[-1].terms == theta_block(star, n24_max=720).terms


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


def fraction_inverse(m):
    """Gauss-Jordan inverse over Fraction of a nonsingular square matrix."""
    n = len(m)
    rows = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


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
    inv = fraction_inverse(g)
    # det G = 1 iff every entry of G^-1 is an integer (Cramer's rule, G integral).
    assume(any(x.denominator != 1 for row in inv for x in row))
    return lat, inv


@settings(max_examples=60, deadline=None)
@given(non_unimodular_lattice(), st.data())
def test_norm_checks_match_fraction_reference(lat_inv, data):
    lat, inv = lat_inv
    n = lat.rank
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(-30, 100), st.tuples(*[st.integers(-10, 10)] * n)),
        COEFFS, max_size=10))
    s = FourierSeries(lat, data.draw(st.integers(1, 6)), terms, 100)

    def norm(w, z_den):
        return sum(Q(w[i]) * inv[i][j] * w[j] for i in range(n) for j in range(n)) / z_den ** 2

    for _, w in s.terms:
        assert s.norm_of(w) == norm(w, s.z_den)
    assert heat_apply(s).terms == {
        (n24, w): (Q(n24, 24) - norm(w, s.z_den) / 2) * c
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
