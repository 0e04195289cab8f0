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
_product computes it on packed integer rows, eta last, and its docstring
describes the kernel.  The heat, holomorphy and singular-shell checks
evaluate the integer 12 D (2n - (l, l)) with the matrix gi of
dual_gram() = (gi, g), gram^-1 = gi / g, and build a Fraction only off the
shell; reflections map exponents in int over one denominator.

Observed on the repeated-vector star over the rank-one even lattice, and left
here as an unproven remark: the worst holomorphy deficit 2n - (l, l) of the
block equals twice the gap between the star's minimum deficiency and its
extremality threshold.  Nothing in the package relies on this.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .lattice import InputError, InternalError, Lattice, format_rational
from .linalg import clear_denominators
from .star import EutacticStar, is_eutactic

DEFAULT_ORDER = 480


def _norm_coeff(c):
    """c as an int or a Fraction with denominator > 1; any other type is an error."""
    if isinstance(c, int):
        return c
    if not isinstance(c, Q):
        raise InputError(f"coefficient {c!r} is not an int or a Fraction")
    return int(c) if c.denominator == 1 else c


class FourierSeries:
    """Truncated series with exact integer (or, after heat, rational) terms.

    Coefficients are int or Fraction; a float, Decimal or complex one is an
    InputError, since no verdict may rest on an inexact number.
    """

    def __init__(self, lattice: Lattice | None, z_den: int,
                 terms: dict, n24_max: int, character_d: int | None = None):
        if z_den < 1:
            raise InputError("z_den must be positive")
        self.lattice = lattice
        width = lattice.rank if lattice is not None else 0
        clean = {}
        for key, c in terms.items():
            n24, w = key
            c = _norm_coeff(c)
            if c == 0:
                continue
            if n24 > n24_max:
                continue
            if len(w) != width:
                raise InputError(f"z-exponent {w} has wrong length (want {width})")
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

    @property
    def min_n24(self) -> int:
        return min((n for n, _ in self.terms), default=self.n24_max + 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return (f"FourierSeries({len(self.terms)} terms, n24_max={self.n24_max}, "
                f"z_den={self.z_den}, character={self.character_d})")

    def _norm_form(self) -> tuple[list[list[int]], int]:
        """(M, D), M an int matrix, with (l, l) = w^T M w / D for every w.

        With dual_gram() = (gi, g), gram^-1 = gi / g: M = gi and D = g z_den^2.
        """
        if self.lattice is None:
            return [], 1
        gi, g = self.lattice.dual_gram()
        return gi, g * self.z_den ** 2


def theta_factor(star: EutacticStar, j: int, n24_max: int = DEFAULT_ORDER) -> FourierSeries:
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


def _pentagonal(order: int) -> list[tuple[int, int]]:
    """(i, e_i) for the nonzero e_i, 1 <= i <= order, of prod_{n>=1} (1 - q^n)
    = sum e_i q^i, in increasing i: e_i = (-1)^j at i = j(3j -+ 1)/2 (Euler)."""
    out = []
    for j in range(1, math.isqrt(order) + 1):  # past it, j(3j - 1)/2 >= j^2 > order
        sign = -1 if j % 2 else 1
        out += [(i, sign) for i in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if i <= order]
    return out


def eta_power(k: int, n24_max: int = DEFAULT_ORDER) -> FourierSeries:
    """eta^k = q^{k/24} prod (1-q^n)^k as a q-only series (lattice-free).

    P = E^k for E = prod (1-q^n) = sum e_i q^i by J.C.P. Miller's recurrence
    (Knuth, TAOCP 2, 4.7): P_0 = 1 and n P_n = sum_{1<=i<=n} ((k+1) i - n) e_i
    P_{n-i}, where only the pentagonal i have e_i != 0.
    """
    order = (n24_max - k) // 24
    if order < 0:
        return FourierSeries(None, 1, {}, n24_max, character_d=k % 24)
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
    terms = {(k + 24 * j, ()): c for j, c in enumerate(p) if c}
    return FourierSeries(None, 1, terms, n24_max, character_d=k % 24)


def _quad(form: list[list[int]], w: Sequence[int]) -> int:
    """w^T form w."""
    return sum(x * sum(map(mul, row, w)) for x, row in zip(w, form))


def _packed(s: FourierSeries, scale: int, radix: int, bits: int):
    """Yield (key, row) per w: key = sum_i scale w_i R^(l-1-i), row = sum_j c_j X^j.

    X = 2^bits, and slot j of the row holds the coefficient of
    n24 = s.min_n24 + 24 j.  The eta power (w = ()) has the one key 0.
    """
    rows: dict = {}
    base = s.min_n24
    for (n24, w), c in s.terms.items():
        key = 0
        for x in w:
            key = key * radix + x * scale
        rows[key] = rows.get(key, 0) + (c << (n24 - base) // 24 * bits)
    yield from rows.items()


def _low_slot(v: int, bits: int) -> int:
    """The index of the lowest nonzero slot of a nonzero row.

    The lowest set bit of v lies in that slot, since a nonzero balanced
    slot is below 2^bits in absolute value."""
    return ((v & -v).bit_length() - 1) // bits


def _cut(v: int, m: int) -> int:
    """The row v cut after slot top, for m = 2^(bits (top + 1)) (m = 1: none kept).

    The kept slots lie below 2^(bits-1) in absolute value, so they sum into
    (-m/2, m/2) and are the balanced residue of v mod m."""
    v &= m - 1
    return v - m if v and v >= m >> 1 else v


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


def _groups(rows, bits: int) -> list:
    """A theta factor's rows +-X^t by lowest slot: (t, t bits, [(key, +-1)]) by t."""
    groups: dict = {}
    for k, v in rows:
        t = _low_slot(v, bits)
        groups.setdefault(t, []).append((k, v >> t * bits))
    return sorted((t, t * bits, group) for t, group in groups.items())


def _accumulate(out: dict, outer, groups: list, top: int, bits: int) -> None:
    """out += outer * groups on rows, with slots past top unknown.

    Each outer row v1 is cut after slot top (see _cut), and a pair is
    skipped when its lowest slot is past top.  A group of monomial rows
    +-X^t shares one shift x = v1 X^t, which adds to each key as +x or -x.
    """
    m = 1 << bits * max(top + 1, 0)
    get = out.get
    for k1, v1 in outer:
        v1 = _cut(v1, m)
        if not v1:
            continue
        stop = top - _low_slot(v1, bits)
        for t, shift, group in groups:
            if t > stop:
                break
            x = v1 << shift
            for k2, v2 in group:
                key = k1 + k2
                if v2 > 0:
                    out[key] = get(key, 0) + x
                else:
                    out[key] = get(key, 0) - x


def _product(lat: Lattice, thetas: Sequence[FourierSeries],
             eta: FourierSeries) -> FourierSeries:
    """The truncated product of the theta factors and, last, the eta power.

    The theta block's kernel, folded left on rows.  Every theta factor is
    widened once to the common z_den (1 when every pairing has only even
    entries, else 2), and a z-exponent w of width l becomes the balanced
    base-R number key = w_1 R^(l-1) + ... + w_l, R = 2 (sum over theta
    factors of max|w|) + 1; the eta power has the one key 0.  No digit of a
    partial product exceeds (R-1)/2 in absolute value, so keys add as the w
    do, key(-w) = -key(w), and key > 0 iff the first nonzero w_i is > 0.

    A partial product maps each key to one int, its row: sum_j c_j X^j with
    X = 2^bits, slot j holding the coefficient of n24 = low + 24 j, low the
    sum of the factors' lowest exponents (every factor has a character).
    Slots are balanced, c_j in [-2^(bits-1), 2^(bits-1)), so rows add and
    multiply as the q-polynomials do.  bits = bitlength(B) + 1 for B the
    product of the factors' ||s||_1: every partial sum of a coefficient is a
    sum of distinct products of factor terms, at most B in absolute value,
    so no slot carries.

    A theta factor's rows are monomials +-X^t, its +odd and -odd rows on one
    t.  Grouped by t, read off v & -v, they meet a stored row v1 through one
    shift x = v1 X^t, added as +x or -x, and the scan stops at the first t
    whose pair starts past the cap.  The dense eta row meets each stored row
    in one big-int multiply, cut after the last slot that can reach the cap
    from that row's lowest slot; each cut is formed once.  Each step's cap
    is min(cap + s.min, s.cap + low), sound since low bounds the partial
    product's min from below.  Slots past a step's top slot stay in the rows
    unread: the next step, and the final decode, cut each row after top by
    one balanced mask, exact since those slots are multiples of X^(top+1).
    The decode reads the slot of the lowest set bit and subtracts it, one
    step per nonzero coefficient.

    Theta factors are odd in z and eta even, so every partial product has a
    parity eps = +-1 and is stored by its rows with key >= 0.  A theta step
    multiplies the stored rows with w != 0 by every row of the factor; a
    product row with key < 0 is the mirror of an unstored one, so it moves
    to -key times eps, and one with key 0 adds to itself.  A stored w = 0
    row is its own mirror and meets only the factor's keys >= 0.  That
    halves the pairs; the eta step keeps every key, and the decode emits
    both mirror terms.
    """
    width = lat.rank
    d = math.lcm(*(s.z_den for s in thetas))
    half = sum(max(abs(x) for _, w in s.terms for x in w) * (d // s.z_den) for s in thetas)
    radix = 2 * half + 1
    char = sum(s.character_d for s in (*thetas, eta)) % 24
    bits = math.prod(sum(map(abs, s.terms.values())) for s in (*thetas, eta)).bit_length() + 1
    first = thetas[0]
    cap, low = first.n24_max, first.min_n24
    # A partial product keeps its rows with key >= 0, and sign is its parity.
    out = {k: v for k, v in _packed(first, d // first.z_den, radix, bits) if k >= 0}
    sign = -1
    for s in thetas[1:]:
        cap = min(cap + s.min_n24, s.n24_max + low)
        low += s.min_n24
        top = (cap - low) // 24
        rows = list(_packed(s, d // s.z_den, radix, bits))
        # An odd partial product has no row with w = 0.
        w_zero = out.pop(0, 0)
        outer, out = out, {}
        _accumulate(out, outer.items(), _groups(rows, bits), top, bits)
        del outer
        # The unstored mirror half adds sign times the mirror of each row:
        # one with key < 0 moves to -key, one with key 0 becomes v + sign v.
        sign = -sign
        for key in [k for k in out if k <= 0]:
            v = out.pop(key)
            out[-key] = out.get(-key, v if key == 0 else 0) + sign * v
        # A w = 0 row is its own mirror, so it meets only the inner keys >= 0.
        if w_zero:
            _accumulate(out, [(0, w_zero)], _groups([r for r in rows if r[0] >= 0], bits),
                        top, bits)
    cap = min(cap + eta.min_n24, eta.n24_max + low)
    low += eta.min_n24
    top = (cap - low) // 24
    m = 1 << bits * max(top + 1, 0)
    # eta's lowest coefficient is 1, in slot 0 of its one row.
    [(_, eta_row)] = _packed(eta, 1, radix, bits)
    cuts: dict = {}  # stop -> eta_row cut after slot stop (0 for stop < 0)
    for key, v in out.items():
        v = _cut(v, m)
        stop = top - _low_slot(v, bits)
        if stop not in cuts:
            cuts[stop] = _cut(eta_row, 1 << bits * max(stop + 1, 0))
        out[key] = v * cuts[stop]
    terms = {}
    bias = (radix ** width - 1) // 2
    for key, v in out.items():
        v = _cut(v, m)
        if not v:
            continue
        # Adding the bias makes every digit w_i + (R-1)/2 lie in [0, R).
        rest, w = key + bias, [0] * width
        for i in range(width - 1, -1, -1):
            rest, digit = divmod(rest, radix)
            w[i] = digit - half
        w = tuple(w)
        mirror = tuple(-x for x in w) if key else None
        for j, c in _slots(v, bits):
            n24 = low + 24 * j
            terms[(n24, w)] = c
            if mirror:
                terms[(n24, mirror)] = sign * c
    del out  # free the rows before the constructor copies the decoded terms
    return FourierSeries(lat, d, terms, cap, character_d=char)


def theta_block(star: EutacticStar, eta_exponent: int | None = None,
                n24_max: int = DEFAULT_ORDER) -> FourierSeries:
    """eta^(eta_exponent - N) times the product of all N theta factors.

    Default eta_exponent is the lattice rank.  Works for any star; eutaxy is
    what makes the result interesting, so its absence only triggers a warning.
    """
    if eta_exponent is None:
        eta_exponent = star.lattice.rank
    if not is_eutactic(star):
        warnings.warn("theta_block of a non-eutactic star", RuntimeWarning, stacklevel=2)
    n = star.size
    eta_min = eta_exponent - n
    total_min = 3 * n + eta_min
    want = total_min % 24
    if n24_max < total_min:
        # Every term has n24 >= total_min, so the block is exactly 0 this far.
        return FourierSeries(star.lattice, 1, {}, n24_max, character_d=want)
    # A factor of lowest exponent m is needed to n24_max - (total_min - m).
    # The dense q-only eta power goes last, so no partial product carries it.
    thetas = [theta_factor(star, j, n24_max - total_min + 3) for j in range(n)]
    eta = eta_power(eta_min, n24_max - total_min + eta_min)
    # Each theta factor starts at 3 and eta at eta_min, so the kernel's cap
    # is n24_max itself and the product is the block as it stands.
    out = _product(star.lattice, thetas, eta)
    if out.n24_max != n24_max:
        raise InternalError(f"product exact to n24 {out.n24_max}, not {n24_max}")
    if out.character_d != want:
        raise InternalError(f"block character {out.character_d}, expected {want}")
    return out


def heat_apply(s: FourierSeries) -> FourierSeries:
    """Multiply each term by n - (l, l)/2; coefficients become exact rationals.

    A term on the shell 2n = (l, l) goes to 0 without building a Fraction."""
    form, den = s._norm_form()
    out = {}
    for (n24, w), c in s.terms.items():
        # n - (l, l)/2 = (n24 D - 12 w^T M w) / (24 D), see _norm_form.
        gap = n24 * den - 12 * _quad(form, w)
        if gap:
            out[(n24, w)] = Q(gap * c.numerator, 24 * den * c.denominator)
    return FourierSeries(s.lattice, s.z_den, out, s.n24_max, s.character_d)


def check_holomorphic(s: FourierSeries) -> list[tuple[int, tuple, Q]]:
    """Terms violating 2n >= (l, l), as (n24, w, deficit) sorted; empty if none."""
    form, den = s._norm_form()
    bad = []
    for (n24, w) in s.terms:
        gap = n24 * den - 12 * _quad(form, w)  # 12 D (2n - (l, l))
        if gap < 0:
            bad.append((n24, w, Q(gap, 12 * den)))
    return sorted(bad)


def check_singular_support(s: FourierSeries) -> bool:
    """True iff every stored term sits on the singular shell 2n = (l, l)."""
    form, den = s._norm_form()
    return all(n24 * den == 12 * _quad(form, w) for (n24, w) in s.terms)


def reflect_series(s: FourierSeries, v: Sequence) -> FourierSeries:
    """Pull the series back along the reflection through v's orthogonal wall.

    With a = e v in int, e the lcm of v's denominators, and b = G a, the
    image of w is ((a . b) w - 2 (a . w) b) / (a . b), so every image shares
    one denominator.
    """
    lat = s.lattice
    if lat is None:
        raise InputError("reflect_series needs a lattice-bearing series")
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
    if s.lattice is None:
        raise InputError("dump_series needs a lattice-bearing series")
    lines = []
    for (n24, w) in sorted(s.terms):
        c = s.terms[(n24, w)]
        wtxt = ",".join(str(x) for x in w)
        ctxt = str(c) if type(c) is int else format_rational(c)
        lines.append(f"{n24} {wtxt}/{s.z_den} {ctxt}")
    return "\n".join(lines)
