"""Exact truncated Fourier expansions of theta blocks.

A series is a finite map (n24, w) -> coefficient.  The q-exponent is n24/24
with n24 an integer; the z-exponent is stored in pairing (dual-basis)
coordinates: the integer vector w with denominator z_den encodes the dual
vector l whose pairing with a lattice point x is (w . x)/z_den, so the norm
(l, l) is w^T dual_gram w / z_den^2.  A series is exact for all n24 up to
n24_max: terms above the cap are unknown, absent terms at or below it are zero.
Coefficients are int, or Fraction after heat_apply, never float.

The theta factor of a star vector s_j is the odd Jacobi theta series in the
variable (s_j, z): sum over k of (-1)^k q^{(2k+1)^2/8} zeta^{(2k+1) s_j / 2},
stored with n24 = 3(2k+1)^2 and w = (2k+1) u_j over z_den 2.  Dedekind eta
powers supply the q-only factor; a theta block is eta^(eta_exponent - N) times
the product of the N theta factors.  That is the one product in the package:
_product reads the star's pairing vectors and builds each factor's rows from
them, multiplies on packed integer rows, starting from the eta row and
taking the factors that close triangles first, and truncates every step at
one slot count, since every factor's lowest exponent is known in advance;
its docstring describes the kernel.  The kernel decodes each term once, in
canonical form: every exponent of a block is w = sum_j u_j mod 2 over z_den 2,
so z_den is read off sum_j u_j mod 2, and the series is built with no second
pass.  The FourierSeries constructor is the validating path for every other
series: outside input, heat_apply and reflect_series.
The heat, holomorphy and singular-shell checks read one gap evaluator,
_gaps, which gives the integer 12 D (2n - (l, l)) of each term from the
diagonal and the doubled upper triangle of the matrix gi of
dual_gram() = (gi, g), gram^-1 = gi / g; heat_apply builds a Fraction only
off the shell.  Reflections map exponents in int over one denominator.

With the default eta exponent, the lattice rank, the least 2n - (l, l) over
the terms of a star's block is 2 (min f - (N - rank)/24), with f the
deficiency of eustar.certify, so the block is holomorphic iff the star is
extremal (Gritsenko, Skoruppa and Zagier, Theta blocks, arXiv:1907.00188).
The tests check the identity against the certificate.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .lattice import InputError, InternalError, Lattice, format_rational
from .linalg import clear_denominators
from .star import EutacticStar, is_eutactic

DEFAULT_ORDER = 480


def _is_int(x) -> bool:
    """True iff x is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _norm_coeff(c):
    """c as an int or a Fraction with denominator > 1; any other type, bool
    included, is an error."""
    if _is_int(c):
        return c
    if not isinstance(c, Q):
        raise InputError(f"coefficient {c!r} is not an int or a Fraction")
    return int(c) if c.denominator == 1 else c


class FourierSeries:
    """Truncated series with exact integer (or, after heat, rational) terms.

    The constructor validates its input and stores it in canonical form: it
    drops zero terms and terms above n24_max, and divides z_den and every
    exponent by their common content (z_den 1 for the zero series).  It
    raises InputError for a z_den that is not a positive int, an n24_max or
    character_d that is not an int, a key that is not a pair (n24, w) with
    n24 an int and w a tuple or list of lattice-rank ints, a kept term off
    the character (n24 = character_d mod 24), and a coefficient that is not
    an int or a Fraction: a float, Decimal or complex one, since no verdict
    may rest on an inexact number.  Here an int is never a bool.  Every term
    is checked for these types, also one the constructor then drops.

    The theta-block kernel builds its series through _canonical instead,
    since its terms hold all of this by construction.
    """

    def __init__(self, lattice: Lattice, z_den: int,
                 terms: dict, n24_max: int, character_d: int | None = None):
        if not _is_int(z_den) or z_den < 1:
            raise InputError(f"z_den {z_den!r} is not a positive int")
        if not _is_int(n24_max):
            raise InputError(f"n24_max {n24_max!r} is not an int")
        if character_d is not None and not _is_int(character_d):
            raise InputError(f"character_d {character_d!r} is not an int")
        self.lattice = lattice
        width = lattice.rank
        clean = {}
        for key, c in terms.items():
            try:
                n24, w = key
            except (TypeError, ValueError):
                raise InputError(f"key {key!r} is not a pair (n24, w)") from None
            if not _is_int(n24):
                raise InputError(f"n24 {n24!r} is not an int")
            if not isinstance(w, (tuple, list)) or len(w) != width:
                raise InputError(f"z-exponent {w!r} is not a sequence of length {width}")
            if not all(map(_is_int, w)):
                raise InputError(f"z-exponent {w!r} has an entry that is not an int")
            c = _norm_coeff(c)
            if c == 0 or n24 > n24_max:
                continue
            if character_d is not None and (n24 - character_d) % 24 != 0:
                raise InputError(f"term n24={n24} violates character {character_d}")
            clean[key if type(w) is tuple else (n24, tuple(w))] = c
        # Canonical z_den: divide out the common content of all exponents.
        g = z_den
        for (_, w) in clean:
            for x in w:
                g = math.gcd(g, x)
            if g == 1:
                break
        if clean and g > 1:
            clean = {(n, tuple(x // g for x in w)): c for (n, w), c in clean.items()}
            z_den //= g
        elif not clean:
            z_den = 1
        self.z_den = z_den
        self.terms = clean
        self.n24_max = n24_max
        self.character_d = character_d

    @classmethod
    def _canonical(cls, lattice: Lattice, z_den: int, terms: dict, n24_max: int,
                   character_d: int | None) -> FourierSeries:
        """The series of terms already in canonical form, taken as they are.

        Nothing is checked or copied: every key is (int n24 <= n24_max on the
        character, a tuple of lattice-rank ints), every coefficient a nonzero
        int or a Fraction with denominator > 1, and z_den is 1 or shares no
        factor with the content of the exponents, 1 if there are none.
        """
        s = cls.__new__(cls)
        s.lattice, s.z_den, s.terms = lattice, z_den, terms
        s.n24_max, s.character_d = n24_max, character_d
        return s

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return (f"FourierSeries({len(self.terms)} terms, n24_max={self.n24_max}, "
                f"z_den={self.z_den}, character={self.character_d})")


def _pentagonal(order: int) -> list[tuple[int, int]]:
    """(i, e_i) for the nonzero e_i, 1 <= i <= order, of prod_{n>=1} (1 - q^n)
    = sum e_i q^i, in increasing i: e_i = (-1)^j at i = j(3j -+ 1)/2 (Euler)."""
    out = []
    for j in range(1, math.isqrt(order) + 1):  # past it, j(3j - 1)/2 >= j^2 > order
        sign = -1 if j % 2 else 1
        out += [(i, sign) for i in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if i <= order]
    return out


def _eta(k: int, order: int) -> list[int]:
    """P_0 ... P_order of P = prod (1-q^n)^k, so eta^k = q^{k/24} sum P_j q^j.

    P = E^k for E = prod (1-q^n) = sum e_i q^i by J.C.P. Miller's recurrence
    (Knuth, TAOCP 2, 4.7): P_0 = 1 and n P_n = sum_{1<=i<=n} ((k+1) i - n) e_i
    P_{n-i}, where only the pentagonal i have e_i != 0.
    """
    e = _pentagonal(order)
    p = [1] + [0] * order
    for n in range(1, order + 1):
        s = 0
        for i, c in e:
            if i > n:
                break
            s += ((k + 1) * i - n) * c * p[n - i]
        p[n], rem = divmod(s, n)
        if rem:
            raise InternalError(f"eta^{k}: coefficient {n} is not an integer")
    return p


def _low_slot(v: int, bits: int) -> int:
    """The index of the lowest nonzero slot of a nonzero row.

    The lowest set bit of v lies in that slot, since a nonzero balanced
    slot is below 2^bits in absolute value."""
    return ((v & -v).bit_length() - 1) // bits


def _slots(v: int, bits: int):
    """Yield (j, c_j) for the nonzero balanced slots of the row v, lowest first:
    each step reads the slot of the lowest set bit and subtracts it."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    while v:
        j = _low_slot(v, bits)
        c = v >> j * bits & mask
        if c >= half:
            c -= mask + 1
        yield j, c
        v -= c << j * bits


def _accumulate(out: dict, outer, groups: list, top: int, bits: int) -> None:
    """out += outer * groups on rows, with slots past top unknown.

    The groups come in increasing t from t = 0, none past top.  A group
    (t, shift, d) is the rows X^t at key d and -X^t at -d, so it adds
    x = v1 X^t at k1 + d and subtracts it at k1 - d.  Each outer row v1 is
    cut after slot top: its kept slots lie below 2^(bits-1) in absolute
    value, so they sum into (-m/2, m/2) for m = 2^(bits (top + 1)) and are
    the balanced residue of v1 mod m; the mask and m/2 are formed once per
    call.  A pair is skipped when its lowest slot is past top, so a row with
    lowest slot top - stop meets fits[stop], the groups with t <= stop, a
    prefix read off a table built once per call.
    """
    m = 1 << bits * (top + 1)
    mask, half = m - 1, m >> 1
    pairs = [(shift, d) for _, shift, d in groups]
    ts = [t for t, _, _ in groups] + [top + 1]
    fits = []  # fits[stop]: the pairs of the groups with t <= stop
    for i in range(len(pairs)):
        fits += [pairs[:i + 1]] * (ts[i + 1] - ts[i])
    get = out.get
    for k1, v1 in outer:
        v1 &= mask
        if not v1:
            continue
        if v1 >= half:
            v1 -= m
        # top - _low_slot(v1, bits), inlined: this loop runs once per stored row.
        for shift, d in fits[top - ((v1 & -v1).bit_length() - 1) // bits]:
            x = v1 << shift
            key = k1 + d
            out[key] = get(key, 0) + x
            key = k1 - d
            out[key] = get(key, 0) - x


def _slot_bits(n: int, K: int, top: int, eta: list[int]) -> int:
    """1 + the bit length of max_{j<=top} E_j, with E_j the coefficient of X^j
    in (sum_{k<=K} 2 X^(k(k+1)/2))^n sum_i |eta_i| X^i: the number of ways to
    pick one of the 2K + 2 rows of each of n theta factors and one eta slot,
    slots totalling j.  E is formed by Kronecker substitution in slots that
    hold the sum of all its coefficients, (2K+2)^n ||eta||_1, so none carries.
    """
    wide = ((2 * K + 2) ** n * sum(map(abs, eta))).bit_length()
    theta = sum(2 << k * (k + 1) // 2 * wide for k in range(K + 1))
    e = theta ** n * sum(abs(c) << j * wide for j, c in enumerate(eta))
    e &= (1 << wide * (top + 1)) - 1
    mask, most = (1 << wide) - 1, 0
    while e:
        most = max(most, e & mask)
        e >>= wide
    return most.bit_length() + 1


def _fold_order(pairings: Sequence[Sequence[int]]) -> list[int]:
    """The indices of the pairings in the order that _product folds them.

    Next comes the remaining u with the most pairs a, b already taken with
    u = +-a +-b, the first in input order among equals.  A pair is counted
    as it is completed: when a is taken, v -+ a is looked up among the
    taken vectors and their negatives for every remaining v.  The order is
    unchanged by a change of basis and by sign flips of the vectors.
    """
    taken: Counter = Counter()  # a and -a for every a taken
    score = [0] * len(pairings)
    rest, order = list(range(len(pairings))), []
    while rest:
        i = max(rest, key=score.__getitem__)
        rest.remove(i)
        order.append(i)
        a = pairings[i]
        for j in rest:
            for s in (1, -1):
                score[j] += taken[tuple(x - s * y for x, y in zip(pairings[j], a))]
        taken.update((tuple(a), tuple(-x for x in a)))
    return order


def _product(lat: Lattice, pairings: Sequence[Sequence[int]], eta_min: int,
             n24_max: int) -> FourierSeries:
    """eta^eta_min times the theta factors of the pairings, to n24_max >= low.

    The theta block's kernel, folded left on rows.  Every theta factor starts
    at n24 = 3 and eta at eta_min, so every term has n24 = low + 24 j with
    low = 3 N + eta_min, and one slot count top = (n24_max - low) // 24
    holds at every step: slot j of a partial product, times the lowest terms
    of the factors still to come, lands on n24 = low + 24 j, so it can reach
    the output iff j <= top.

    z-exponents are taken over z_den 2, and a z-exponent w of width l
    becomes the balanced base-R number key = w_1 R^(l-1) + ... + w_l.  The
    factor of u has, for k = 0 ... K with K (K+1)/2 <= top, the group
    (t, t bits, d) with t = k (k+1)/2 and d = (-1)^k (2k+1) b, b the key of
    u: the rows X^t at key d and -X^t at -d.  So R = 2 sum_u (2K+1) max|u|
    + 1, and no digit of a partial product exceeds (R-1)/2 in absolute
    value: keys add as the w do, key(-w) = -key(w), and key > 0 iff the
    first nonzero w_i is > 0.  The factors go in the order of _fold_order,
    which takes next the u closing the most triangles u = +-a +-b with the
    factors already in, so that its pairs land on rows the product already
    has; the product is commutative.

    A partial product maps each key to one int, its row: sum_j c_j X^j with
    X = 2^bits and slot j holding the coefficient of n24 = low + 24 j.
    Slots are balanced, c_j in [-2^(bits-1), 2^(bits-1)), so rows add and
    multiply as the q-polynomials do.  At any time, slot j <= top of any
    row is a signed sum of distinct tuples of one eta slot and one row per
    factor so far, slots totalling j: the pair loop, the mirror fold and
    the w = 0 branch add each tuple at most once.
    So |c_j| is at most the count E_j of _slot_bits, and with
    bits = bitlength(max_{j<=top} E_j) + 1 no slot carries.

    The fold starts from eta's one row, eta^eta_min cut after top.  That
    is exact and costs nothing: eta depends on q alone and has constant
    term 1, so it is a unit that commutes with every theta step, and a row
    times it, cut after top, is never 0 and keeps its lowest slot.  So the
    rows, their stops, the pairs visited and the width are those of a fold
    that multiplies eta last, and no eta pass is left.

    A group meets a stored row v1 of key k1 through one shift x = v1 X^t,
    added at k1 + d and subtracted at k1 - d, over the groups whose pair
    starts at or below top.  Slots past top stay in the rows unread: the
    next step, and the final decode, cut each row after top by one
    balanced mask, exact since those slots are multiples of X^(top+1).
    The decode reads the slot of the lowest set bit and subtracts it, one
    step per nonzero coefficient, and the digits of a key by powers of R.

    Theta factors are odd in z and eta even, so every partial product has a
    parity eps = +-1 and is stored by its rows with key >= 0; the fold
    starts from the even row {0: eta}.  A theta step multiplies the stored
    rows with w != 0 by every row of the factor; a product row with key < 0
    is the mirror of an unstored one, so it moves to -key times eps, and one
    with key 0 adds to itself.  A stored w = 0 row is its own mirror and
    meets only the row of key |d| of each group.  That halves the pairs,
    and the decode emits both mirror terms.

    The decode writes each term in canonical form, so the series is built
    with no second pass.  A term picks one row of each theta factor, an odd
    multiple of its u, and eta adds 0, so every exponent is w = sum_j u_j
    mod 2.  Hence z_den is 1 iff every coordinate of sum_j u_j is even, and
    then every w, and so every key, is even: the decode reads the digits of
    key / 2, which are w / 2.  Otherwise some coordinate of every w is odd,
    so no factor of 2 is common to them all.  The block is not empty: slot 0
    is prod_j (zeta^(u_j/2) - zeta^(-u_j/2)), which is not 0.  Coefficients
    are nonzero ints, widths are l and every n24 = low + 24 j <= n24_max is
    on the character.
    """
    width = lat.rank
    low = 3 * len(pairings) + eta_min
    top = (n24_max - low) // 24
    K = (math.isqrt(8 * top + 1) - 1) // 2  # the largest K with K (K+1)/2 <= top
    half = (2 * K + 1) * sum(max(map(abs, u)) for u in pairings)
    radix = 2 * half + 1
    eta = _eta(eta_min, top)
    bits = _slot_bits(len(pairings), K, top, eta)
    # (t, t bits, (-1)^k (2k+1)) for the rows of index k.
    steps = [(k * (k + 1) // 2, k * (k + 1) // 2 * bits, (-1) ** k * (2 * k + 1))
             for k in range(K + 1)]
    # A partial product keeps its rows with key >= 0, and sign is its parity.
    # The fold starts from eta's one row, eta_j in slot j.
    out, sign = {0: sum(c << j * bits for j, c in enumerate(eta))}, 1
    for i in _fold_order(pairings):
        b = 0
        for x in pairings[i]:
            b = b * radix + x
        groups = [(t, shift, o * b) for t, shift, o in steps]
        # An odd partial product has no row with w = 0.
        w_zero = out.pop(0, 0)
        outer, out = out, {}
        _accumulate(out, outer.items(), groups, top, bits)
        del outer
        # The unstored mirror half adds sign times the mirror of each row:
        # one with key < 0 moves to -key, one with key 0 becomes v + sign v.
        sign = -sign
        for key in [k for k in out if k <= 0]:
            v = out.pop(key)
            out[-key] = out.get(-key, v if key == 0 else 0) + sign * v
        # A w = 0 row meets only the row of key |d|: x at d > 0, -x at -d.
        if w_zero:
            stop = top - _low_slot(w_zero, bits)
            for t, shift, d in groups:
                if t > stop:
                    break
                x = w_zero << shift
                out[abs(d)] = out.get(abs(d), 0) + (x if d > 0 else -x)
    m = 1 << bits * (top + 1)
    mask, cut = m - 1, m >> 1
    radices = [radix ** i for i in range(width - 1, -1, -1)]
    bias = (radix ** width - 1) // 2
    z_den = 1 if all(sum(col) % 2 == 0 for col in zip(*pairings)) else 2
    terms = {}
    for key, v in out.items():
        v &= mask
        if not v:
            continue
        if v >= cut:
            v -= m
        # Over z_den 1 the digits are read off key / 2.  Adding the bias
        # makes every digit w_i + (R-1)/2 lie in [0, R).
        rest = (key >> 2 - z_den) + bias
        w = tuple(rest // p % radix - half for p in radices)
        mirror = tuple(-x for x in w) if key else None
        for j, c in _slots(v, bits):
            n24 = low + 24 * j
            terms[(n24, w)] = c
            if mirror:
                terms[(n24, mirror)] = sign * c
    return FourierSeries._canonical(lat, z_den, terms, n24_max, low % 24)


def theta_block(star: EutacticStar, eta_exponent: int | None = None,
                n24_max: int = DEFAULT_ORDER) -> FourierSeries:
    """eta^(eta_exponent - N) times the product of all N theta factors.

    Default eta_exponent is the lattice rank.  Works for any star; eutaxy is
    what makes the result interesting, so its absence only triggers a warning.
    An eta_exponent or n24_max that is not an int (a bool included) is an
    InputError, since the kernel builds its series unchecked.
    """
    if eta_exponent is None:
        eta_exponent = star.lattice.rank
    for name, value in (("eta_exponent", eta_exponent), ("n24_max", n24_max)):
        if not _is_int(value):
            raise InputError(f"{name} {value!r} is not an int")
    if not is_eutactic(star):
        warnings.warn("theta_block of a non-eutactic star", RuntimeWarning, stacklevel=2)
    eta_min = eta_exponent - star.size
    low = 3 * star.size + eta_min
    if n24_max < low:
        # Every term has n24 >= low, so the block is exactly 0 this far.
        return FourierSeries(star.lattice, 1, {}, n24_max, character_d=low % 24)
    return _product(star.lattice, star.pairings, eta_min, n24_max)


def _gaps(s: FourierSeries):
    """Yield (key, c, gap, D) per term, with gap = 12 D (2n - (l, l)) in int.

    With dual_gram() = (gi, g), gram^-1 = gi / g, the norm is
    (l, l) = w^T gi w / D for D = g z_den^2, so gap = n24 D - 12 w^T gi w.
    gi is symmetric, so w^T gi w is the sum of gi_ii w_i^2 over the diagonal
    and of 2 gi_ij w_i w_j over the upper triangle, i < j; the nonzero
    coefficients of both are formed once per call.
    """
    gi, g = s.lattice.dual_gram()
    den = g * s.z_den ** 2
    l = len(gi)
    quadratic = [(i, j, gi[i][j] if i == j else 2 * gi[i][j])
                 for i in range(l) for j in range(i, l) if gi[i][j]]
    for key, c in s.terms.items():
        n24, w = key
        quad = 0
        for i, j, x in quadratic:
            quad += x * w[i] * w[j]
        yield key, c, n24 * den - 12 * quad, den


def heat_apply(s: FourierSeries) -> FourierSeries:
    """Multiply each term by n - (l, l)/2 = gap / (24 D); coefficients become
    exact rationals.  A term on the shell 2n = (l, l) goes to 0 without
    building a Fraction."""
    out = {key: Q(gap * c.numerator, 24 * den * c.denominator)
           for key, c, gap, den in _gaps(s) if gap}
    return FourierSeries(s.lattice, s.z_den, out, s.n24_max, s.character_d)


def check_holomorphic(s: FourierSeries) -> list[tuple[int, tuple, Q]]:
    """Terms violating 2n >= (l, l), as (n24, w, deficit) sorted; empty if none."""
    return sorted((n24, w, Q(gap, 12 * den))
                  for (n24, w), _, gap, den in _gaps(s) if gap < 0)


def check_singular_support(s: FourierSeries) -> bool:
    """True iff every stored term sits on the singular shell 2n = (l, l)."""
    return all(gap == 0 for _, _, gap, _ in _gaps(s))


def reflect_series(s: FourierSeries, v: Sequence) -> FourierSeries:
    """Pull the series back along the reflection through v's orthogonal wall.

    With a = e v in int, e the lcm of v's denominators, and b = G a, the
    image of w is ((a . b) w - 2 (a . w) b) / (a . b), so every image shares
    one denominator.
    """
    lat = s.lattice
    if len(v) != lat.rank:
        raise InputError(f"reflect_series: v has length {len(v)}, expected {lat.rank}")
    (a,), _ = clear_denominators([v])
    b = [sum(map(mul, row, a)) for row in lat.gram]
    ab = sum(map(mul, a, b))
    if ab == 0:
        raise InputError("reflect_series: v must be nonzero")
    new = {}
    for (n24, w), c in s.terms.items():
        t = 2 * sum(x * y for x, y in zip(a, w))
        new[(n24, tuple(ab * x - t * y for x, y in zip(w, b)))] = c
    return FourierSeries(s.lattice, ab * s.z_den, new, s.n24_max, s.character_d)


def check_antisymmetry(s: FourierSeries, v: Sequence) -> bool:
    """True iff the series is odd under the reflection through v's wall.

    Every series is stored in canonical form, z_den over the common content
    of its exponents, so two series with the same rational exponents have
    the same (z_den, terms)."""
    r = reflect_series(s, v)
    return r.z_den == s.z_den and r.terms == {k: -c for k, c in s.terms.items()}


def dump_series(s: FourierSeries) -> str:
    """One line per term: 'n24 w1,...,wl/z_den coeff', sorted by (n24, w)."""
    lines = []
    for (n24, w) in sorted(s.terms):
        c = s.terms[(n24, w)]
        wtxt = ",".join(str(x) for x in w)
        ctxt = str(c) if type(c) is int else format_rational(c)
        lines.append(f"{n24} {wtxt}/{s.z_den} {ctxt}")
    return "\n".join(lines)
