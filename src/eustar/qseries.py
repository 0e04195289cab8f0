"""Exact truncated Fourier expansions of theta blocks.

A series is a finite map (n24, w) -> coefficient.  The q-exponent is n24/24
with n24 an integer; the z-exponent is stored in pairing (dual-basis)
coordinates: the integer vector w with denominator z_den encodes the dual
vector l whose pairing with a lattice point x is (w . x)/z_den, so the norm
(l, l) is w^T dual_gram w / z_den^2.  A series is exact for all n24 up to
n24_max: terms above the cap are unknown, absent terms at or below it are zero.
Products track the cap as min(a.cap + b.min, b.cap + a.min), which is where
truncation error can first appear.  One row kernel computes every product,
of two series (multiply) or of a whole theta block; multiply describes it.
The heat, holomorphy and singular-shell checks evaluate the integer
12 D (2n - (l, l)) with the matrix gi of dual_gram() = (gi, g),
gram^-1 = gi / g, and build a Fraction only off the shell; reflections map
exponents in int over one denominator.
Coefficients are int or Fraction, never float.

The theta factor of a star vector s_j is the odd Jacobi theta series in the
variable (s_j, z): sum over k of (-1)^k q^{(2k+1)^2/8} zeta^{(2k+1) s_j / 2},
stored with n24 = 3(2k+1)^2 and w = (2k+1) u_j over z_den 2.  Dedekind eta
powers supply the q-only factor; a theta block is eta^(eta_exponent - N) times
the product of the N theta factors.

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

    def norm_of(self, w: Sequence[int]) -> Q:
        """(l, l) for the stored exponent w: w^T gram^-1 w / z_den^2."""
        form, den = self._norm_form()
        if len(w) != len(form):
            raise InputError(f"norm_of: w has length {len(w)}, expected {len(form)}")
        return Q(_quad(form, w), den)

    def _norm_form(self) -> tuple[list[list[int]], int]:
        """(M, D), M an int matrix, with (l, l) = w^T M w / D for every w.

        With dual_gram() = (gi, g), gram^-1 = gi / g: M = gi and D = g z_den^2.
        """
        if self.lattice is None:
            return [], 1
        gi, g = self.lattice.dual_gram()
        return gi, g * self.z_den ** 2

    def trimmed(self, n24_max: int) -> "FourierSeries":
        if n24_max > self.n24_max:
            raise InputError("cannot extend a truncated series")
        return FourierSeries(self.lattice, self.z_den,
                             {k: c for k, c in self.terms.items() if k[0] <= n24_max},
                             n24_max, self.character_d)


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


def _join_lattice(*series: FourierSeries) -> Lattice | None:
    lat = None
    for s in series:
        if lat is None:
            lat = s.lattice
        elif s.lattice is not None and s.lattice != lat:
            raise InputError("series live on different lattices")
    return lat


def _packed(s: FourierSeries, scale: int, radix: int, den: int, stride: int, bits: int):
    """Yield (key, row) per w: key = sum_i scale w_i R^(l-1-i), row = sum_j c_j X^j.

    X = 2^bits, and slot j of the row holds den times the coefficient of
    n24 = s.min_n24 + stride j; den clears every coefficient's denominator.
    A lattice-free series (w = ()) has the one key 0.
    """
    rows: dict = {}
    base = s.min_n24
    for (n24, w), c in s.terms.items():
        key = 0
        for x in w:
            key = key * radix + x * scale
        c = c.numerator * (den // c.denominator)
        rows[key] = rows.get(key, 0) + (c << (n24 - base) // stride * bits)
    yield from rows.items()


def multiply(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Exact truncated product; cap = min(a.cap + b.min, b.cap + a.min).

    This is the product kernel on two operands, the larger one outer.  The
    kernel multiplies a list of series as rows of packed integers.  With
    every operand widened once to the common z_den, a z-exponent w of width l
    becomes the base-R number with balanced digits

        key = w_1 R^(l-1) + ... + w_l,

    with one radix R = 2 (sum over operands of max|w|) + 1, maxima taken
    after widening.  Every digit of every partial product is at most (R-1)/2
    in absolute value, so keys decode uniquely, key(w1 + w2) = key(w1) +
    key(w2), key(-w) = -key(w), and key > 0 iff the first nonzero w_i is > 0.

    A partial product maps each key to one int, its row: the q-polynomial
    of that w by Kronecker substitution, sum_j c_j X^j with X = 2^bits,
    where slot j holds the coefficient of n24 = low + stride j.  low is the
    sum of the operands' lowest exponents, so no slot index is negative,
    and stride is 24 when every operand has a character (all its exponents
    are congruent mod 24), 1 otherwise.  Slots are balanced: each c_j lies
    in [-2^(bits-1), 2^(bits-1)), and a row is the exact integer sum of its
    slots, so rows add and multiply as the polynomials do.  Rational
    operands are scaled to int by the lcm of their denominators, and the
    product is divided by the product of those scales once, at the end.

    Slot width.  Let B be the product over operands of max(||s||_1, 1),
    ||s||_1 the sum of |c| over the scaled terms.  Every partial sum that
    the kernel forms for a coefficient is a sum of distinct products c_1 ...
    c_k of operand terms, so its absolute value is at most B; with bits =
    bitlength(B) + 1 it is below 2^(bits-1), the slot never carries, and
    the balanced digits decode to the true coefficients.

    Each step multiplies every stored row by every row of the next operand,
    packed once and grouped by lowest slot t, read off v & -v: a row v1
    meets a group of rows v2 X^t through one shift x = v1 X^t, added to
    each key as +x, -x or x v2.  A theta factor's rows are monomials +-X^t,
    the +odd and -odd ones on one t, so each group costs one shift and no
    multiply.  The scan of groups stops at the first t that puts the pair's
    lowest slot past the step's cap: no slot of that product is kept.  The
    dense eta power is one row, so the eta step is one big-int multiply per
    row, by the eta row cut after the last slot that can reach the cap
    from v1's lowest slot: no eta slot that lands only past the cap enters
    the multiply.  Those prefix cuts are formed once per step.  The caps
    follow the rule above with the running min taken as the sum of the
    operands' mins, a lower bound, so each cap is sound, and a step's last
    slot top is never above the one before.  Slots past top are
    left in the rows unread: the next step cuts each row after its own top
    by one balanced mask as it reads it, and skips the rows that the cut
    leaves 0.  That cut is exact whatever the slots past top hold, since
    they are multiples of X^(top+1).  Keys and rows are decoded to terms
    (n24, w), up to the last cap, into one FourierSeries, only at the end:
    each row is cut at top, and the decode reads the slot of its lowest set
    bit and subtracts it, one step per nonzero coefficient.

    When every operand has a parity, S(n, -w) = eps S(n, w) with eps = +-1
    (theta factors are odd, eta powers and lattice-free series even), every
    partial product has one too, and the kernel stores only its rows with
    key >= 0.  Each step multiplies the stored rows with w != 0 by every row
    of the next operand; the mirrored outer rows times the mirrored operand
    give the mirror of each product times the running parity, so a product
    row with key < 0 moves to key -key with that sign, and one with key 0
    adds to itself.  A stored row with w = 0 is its own mirror, and its
    products are added on the keys >= 0 only.  That halves the pairs, and
    the decode emits both mirror terms.  If any operand has no parity, the
    same loop runs with nothing filtered and nothing folded.
    """
    return _product([a, b] if len(a.terms) >= len(b.terms) else [b, a])


def _parity(s: FourierSeries) -> int | None:
    """eps in {+1, -1} with S(n, -w) = eps S(n, w) for every term, or None.

    Theta factors are odd; eta powers, lattice-free series and the empty
    series are even.  A term with w = 0 is its own mirror, so a series that
    has one is even or has no parity.
    """
    eps = None
    for (n24, w), c in s.terms.items():
        m = s.terms.get((n24, tuple(-x for x in w)))
        e = 1 if m == c else -1 if m == -c else None
        if e is None or eps not in (None, e):
            return None
        eps = e
    return eps or 1


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
    """The rows v X^t of the next operand by lowest slot: (t, t bits, [(key, v)]) by t."""
    groups: dict = {}
    for k, v in rows:
        t = _low_slot(v, bits)
        groups.setdefault(t, []).append((k, v >> t * bits))
    return sorted((t, t * bits, group) for t, group in groups.items())


def _accumulate(out: dict, outer, groups: list, top: int, bits: int) -> None:
    """out += outer * groups on rows, with slots past top unknown.

    Each outer row v1 is cut after slot top (see _cut), and a pair is
    skipped when its lowest slot is past top.  A group of rows v2 X^t
    shares one shift x = v1 X^t, which adds to each key as +x, -x or x v2.
    One dense row, as the eta power is, is cut after the last slot that can
    reach top from v1's lowest slot; the cuts are kept by that slot.
    """
    m = 1 << bits * max(top + 1, 0)
    get = out.get
    dense = len(groups) == 1 and len(groups[0][2]) == 1
    if dense:
        [(t_d, shift_d, [(k_d, v_d)])] = groups
        cuts: dict = {}  # stop -> v_d cut after slot stop - t_d
    for k1, v1 in outer:
        v1 = _cut(v1, m)
        if not v1:
            continue
        stop = top - _low_slot(v1, bits)
        if dense:
            if stop >= t_d:
                if stop not in cuts:
                    cuts[stop] = _cut(v_d, 1 << bits * (stop - t_d + 1))
                key = k1 + k_d
                out[key] = get(key, 0) + (v1 * cuts[stop] << shift_d)
            continue
        for t, shift, group in groups:
            if t > stop:
                break
            x = v1 << shift
            for k2, v2 in group:
                key = k1 + k2
                if v2 == 1:
                    out[key] = get(key, 0) + x
                elif v2 == -1:
                    out[key] = get(key, 0) - x
                else:
                    out[key] = get(key, 0) + x * v2


def _rational(terms: dict, den: int) -> dict:
    """The terms divided by den, the product of the operands' scales."""
    return terms if den == 1 else {k: Q(c, den) for k, c in terms.items()}


def _product(factors: Sequence[FourierSeries]) -> FourierSeries:
    """The truncated product of the factors, folded left on rows; see multiply."""
    lat = _join_lattice(*factors)
    width = lat.rank if lat is not None else 0
    d = math.lcm(*(s.z_den for s in factors))
    scales = [d // s.z_den for s in factors]
    half = sum(max((abs(x) for _, w in s.terms for x in w), default=0) * scale
               for s, scale in zip(factors, scales))
    radix = 2 * half + 1
    chars = [s.character_d for s in factors]
    char = None if None in chars else sum(chars) % 24
    stride = 1 if char is None else 24
    dens = [math.lcm(*(c.denominator for c in s.terms.values())) for s in factors]
    bound = math.prod(max(sum(abs(c.numerator) * (den // c.denominator)
                              for c in s.terms.values()), 1)
                      for s, den in zip(factors, dens))
    bits = bound.bit_length() + 1
    parities = [_parity(s) for s in factors]
    folded = None not in parities
    first = factors[0]
    cap, low = first.n24_max, first.min_n24
    top = (cap - low) // stride
    # With every parity known, a partial product keeps its rows with key >= 0,
    # and sign is its parity.
    out = {k: v for k, v in _packed(first, scales[0], radix, dens[0], stride, bits)
           if not folded or k >= 0}
    sign = parities[0]
    for s, scale, den, parity in zip(factors[1:], scales[1:], dens[1:], parities[1:]):
        cap = min(cap + s.min_n24, s.n24_max + low)
        low += s.min_n24
        top = (cap - low) // stride
        rows = list(_packed(s, scale, radix, den, stride, bits))
        # An odd partial product has no row with w = 0.
        w_zero = out.pop(0, 0) if folded else 0
        outer, out = out, {}
        _accumulate(out, outer.items(), _groups(rows, bits), top, bits)
        del outer
        if folded:
            # The unstored mirror half adds sign times the mirror of each row:
            # one with key < 0 moves to -key, one with key 0 becomes v + sign v.
            sign *= parity
            for key in [k for k in out if k <= 0]:
                v = out.pop(key)
                out[-key] = out.get(-key, v if key == 0 else 0) + sign * v
            # A w = 0 row is its own mirror, so it meets only the inner keys >= 0.
            if w_zero:
                _accumulate(out, [(0, w_zero)], _groups([r for r in rows if r[0] >= 0], bits),
                            top, bits)
    terms = {}
    bias = (radix ** width - 1) // 2
    m = 1 << bits * max(top + 1, 0)
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
        mirror = tuple(-x for x in w) if folded and key else None
        for j, c in _slots(v, bits):
            n24 = low + stride * j
            terms[(n24, w)] = c
            if mirror:
                terms[(n24, mirror)] = sign * c
    del out  # free the rows before the constructor copies the decoded terms
    return FourierSeries(lat, d, _rational(terms, math.prod(dens)), cap, character_d=char)


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
    factors = [theta_factor(star, j, n24_max - total_min + 3) for j in range(n)]
    factors.append(eta_power(eta_min, n24_max - total_min + eta_min))
    # Each theta factor starts at 3 and eta at eta_min, so the kernel's cap
    # is n24_max itself and the product is the block as it stands.
    out = _product(factors)
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
