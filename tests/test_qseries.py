"""Fourier expansions checked against product-side oracles.

theta_factor builds the theta series from its explicit sum over odd indices.
The oracle below multiplies out the corresponding infinite product directly,
factor by factor, sharing no code with the implementation.  Likewise the
pentagonal-number eta coefficients are compared against a naive expansion of
prod (1 - q^n).
"""

from fractions import Fraction as Q

import pytest

from eustar.lattice import InputError, Lattice
from eustar.qseries import (DEFAULT_ORDER, FourierSeries, add,
                            check_antisymmetry, check_holomorphic,
                            check_singular_support, dump_series, eta_power,
                            heat_apply, multiply, reflect_series, theta_block,
                            theta_factor)
from eustar.star import EutacticStar, support_set


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
    star = EutacticStar(Lattice([[4]]), [(Q(1, 2),)])
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
    star = EutacticStar(Lattice([[2]]), [(Q(1, 2),)])
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
