"""Root-system catalog, induced lattices and stars, and recognition.

Every catalog type is realized in simple-root coordinates (Bourbaki numbering):
the ambient form has Gram M_ij = <a_i, a_j>, the symmetrized Cartan matrix
normalized so long roots have norm 2, and positive roots are small non-negative
integer tuples.  The dual Coxeter number h is computed from the defining
identity sum_{r>0} <r, z>^2 = h <z, z>, never from a table.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from operator import mul
from typing import Sequence

from .lattice import InputError, InternalError, Lattice
from .linalg import Mat, clear_denominators, invert
from .star import EutacticStar, integer_support

_LABEL_RE = re.compile(r"^([A-G])([1-9][0-9]*)$")
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"A": 8, "B": 8, "C": 8, "D": 8, "E": 8, "F": 4, "G": 2}
# Positive roots and short simple roots of each family at rank r (Bourbaki,
# *Lie groups and Lie algebras* VI, Plates I-IX).
_COUNTS = {
    "A": lambda r: (r * (r + 1) // 2, 0),
    "B": lambda r: (r * r, 1),
    "C": lambda r: (r * r, r - 1),
    "D": lambda r: (r * (r - 1), 0),
    "E": lambda r: ({6: 36, 7: 63, 8: 120}[r], 0),
    "F": lambda r: (24, 2),
    "G": lambda r: (6, 1),
}


def parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.match(label.strip()) if isinstance(label, str) else None
    if not m:
        raise InputError(f"bad root system label {label!r}")
    family, n = m.group(1), int(m.group(2))
    if not _MIN_RANK[family] <= n <= _MAX_RANK[family]:
        raise InputError(f"unsupported root system {label!r}")
    return family, n


def catalog_labels() -> list[str]:
    """All irreducible type labels of the catalog, deterministic order."""
    return [f"{family}{n}" for family in "ABCDEFG"
            for n in range(_MIN_RANK[family], _MAX_RANK[family] + 1)]


def cartan_matrix_for(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A_ij = 2<a_i, a_j>/<a_j, a_j>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in "ABC":
        for i in range(n - 1):
            edge(i, i + 1)
        if family == "B":
            edge(n - 2, n - 1, -2, -1)  # a_n is the short root
        elif family == "C":
            edge(n - 2, n - 1, -1, -2)  # a_n is the long root
    elif family == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)  # a_3, a_4 short
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -1, -3)  # a_1 short
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class RootSystemDescriptor:
    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    norm_gram: Mat  # Gram of <,> on the simple-root basis
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    dual_coxeter: int


def _close_under_reflections(cartan, n: int, limit: int | None = None):
    """The orbit of the simple roots under the simple reflections, in
    simple-root coordinates, for a Cartan matrix of finite type; None as soon
    as it would exceed limit roots.

    Each root r travels with its labels b_i = <r, a_i^vee> = sum_k r_k A_ki,
    so s_i r = r - b_i a_i has the labels b - b_i A_i and costs no pairing.
    The orbit is the root system, so it is the positive roots and their
    negatives.  Only the steps with b_i < 0, which raise r, are taken: they
    keep a positive root positive, and each positive root that is not simple
    is such a step from a lower one (Humphreys 10.2), so they reach every
    positive root from the simple ones.
    """
    rows = [tuple(row) for row in cartan]
    frontier = [(tuple(int(j == i) for j in range(n)), rows[i]) for i in range(n)]
    positive = {r for r, _ in frontier}
    while frontier:
        r, b = frontier.pop()
        for i, c in enumerate(b):
            if c < 0:
                img = list(r)
                img[i] -= c
                img = tuple(img)
                if img not in positive:
                    if limit is not None and 2 * (len(positive) + 1) > limit:
                        return None
                    positive.add(img)
                    frontier.append((img, tuple([x - c * y for x, y in zip(b, rows[i])])))
    if limit is not None and 2 * len(positive) > limit:
        return None
    return positive | {tuple([-x for x in r]) for r in positive}


@lru_cache(maxsize=None)
def catalog(label: str) -> RootSystemDescriptor:
    """Descriptor for an irreducible type: roots, form, dual Coxeter number."""
    family, n = parse_label(label)
    cartan = cartan_matrix_for(family, n)
    # <a_j, a_j> / <a_i, a_i> = A_ji / A_ij along each edge of the diagram, a
    # connected tree, so one walk from a_1 fixes every norm up to scale.
    norms, stack = {0: Q(1)}, [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if cartan[i][j] and j not in norms:
                norms[j] = norms[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    # M_ij = <a_i, a_j> = A_ij <a_j, a_j> / 2, with long roots of norm 2.
    long = max(norms.values())
    gram = tuple(tuple(cartan[i][j] * norms[j] / long for j in range(n)) for i in range(n))
    roots = _close_under_reflections(cartan, n)
    if not all(all(c >= 0 for c in r) or all(c <= 0 for c in r) for r in roots):
        raise InternalError(f"{label}: a root is neither positive nor negative")
    positive = sorted((r for r in roots if all(c >= 0 for c in r)),
                      key=lambda r: (sum(r), r))
    # Dual Coxeter number via (sum_{r>0} r r^T) M = h I, in int: with
    # M = gm / den, (sum_{r>0} r r^T) gm = (h den) I.
    _, c, den = _root_square_sum(positive, gram)
    if any(c[i][j] != (c[0][0] if i == j else 0) for i in range(n) for j in range(n)):
        raise InternalError(f"{label}: sum of root squares is not a multiple of the form")
    h, r = divmod(c[0][0], den)
    if r or h <= 0:
        raise InternalError(f"{label}: dual Coxeter number {c[0][0]}/{den} "
                            "is not a positive integer")
    return RootSystemDescriptor(label=f"{family}{n}", rank=n, cartan=cartan,
                                norm_gram=gram, positive_roots=tuple(positive),
                                dual_coxeter=h)


def _root_square_sum(positive: Sequence[Sequence[int]], gram: Mat):
    """(S, S gm, den) for S = sum_{r>0} r r^T and gram = gm / den, all in int."""
    cols = list(zip(*positive))
    gm, den = clear_denominators(gram)
    s = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    return s, [[sum(map(mul, row, col)) for col in zip(*gm)] for row in s], den


def build_P_lattice(desc: RootSystemDescriptor) -> Lattice:
    """The lattice P = {x : <x, r> in Z for all roots r} with form h<,>.

    On the basis dual to the simple roots the Gram matrix is h M^{-1}, which
    equals sum_{r>0} r r^T and is therefore integral.  The check pgram M = h I
    runs in int, as pgram gm = (h den) I for M = gm / den.
    """
    n = desc.rank
    pgram, c, den = _root_square_sum(desc.positive_roots, desc.norm_gram)
    hd = desc.dual_coxeter * den
    if any(c[i][j] != (hd if i == j else 0) for i in range(n) for j in range(n)):
        raise InternalError(f"{desc.label}: sum of r r^T over the positive roots "
                            "is not h M^-1")
    return Lattice(pgram)


def build_star(desc: RootSystemDescriptor) -> EutacticStar:
    """The star {r/h : r positive} on P; its pairing vectors are the roots.

    build_P_lattice proves pgram M = h I, so the derived vectors
    pgram^-1 r are exactly M r / h.
    """
    return EutacticStar(build_P_lattice(desc), desc.positive_roots)


@dataclass
class RecognitionReport:
    ok: bool
    label: str | None  # e.g. "A2" or "A1 x A1"
    components: list[dict]
    failure: dict | None  # {"axiom": ..., "witness": ...} when not ok

    def __bool__(self) -> bool:
        return self.ok


def _fail(axiom: str, witness) -> RecognitionReport:
    return RecognitionReport(ok=False, label=None, components=[],
                             failure={"axiom": axiom, "witness": witness})


def recognize_star(star: EutacticStar) -> RecognitionReport:
    """Decide whether the star's support S = {+-s_j} is a root system for the
    lattice's form, and which one.

    The axioms, in order: no proper integer multiples, closure under the
    reflections x -> x - (2(v, x)/(v, v)) v, and integrality of all ratios
    2(x, y)/(x, x); the first failing pair in index order is the witness, as
    Fraction tuples.  A passing S is split into orthogonal components, each
    named by its rank and root counts, so the verdict is invariant under
    rescaling the form.  S is read as the integer support W / g, and every
    check runs in int.

    W is the sorted set of the +-g s_j, with each g s_j a nonzero integer
    tuple of the lattice's rank, so S has no repeats and S = -S.  Negation
    reverses the order of int tuples, so -W_i = W_(n-1-i), and the first
    half of W, the indices before their negation's, are the
    representatives.  A generic functional f
    picks the positive one of each +-v; in increasing f, a positive vector is
    simple iff it pairs <= 0 with every simple one before it, which in a root
    system gives its base Delta (Humphreys, *Introduction to Lie algebras and
    representation theory*, 10.1).

    S is certified as the orbit W Delta under the simple reflections with
    |S| |Delta| pairings: the Gram M of Delta is positive definite, each
    a_ij = 2 M_ij / M_jj is an integer, the closure of Delta under the s_i
    has at most |S| elements in Delta-coordinates, and the coordinates
    M^-1 ((v, alpha_k))_k of each representative are integral, lie in it
    and, unless Delta is a basis, rebuild v as sum_k c_k alpha_k.  So S
    spans what Delta spans, its |S| coordinates are distinct and S is that
    closure.  W Delta passes all three axioms on every pair: it is the
    reduced root system of its Cartan matrix, so it holds no proper integer
    multiples; s_{w alpha} = w s_alpha w^-1 is in W; and W preserves
    Z Delta, on which each alpha_j^vee takes the integer values a_kj.  Every
    root system is W Delta and passes (Humphreys 10.3, 11.4; Bourbaki, *Lie
    groups and Lie algebras* VI 1.5).  So the certificate alone decides; only
    an S that it rejects is scanned pair by pair, by ``_first_failing_pair``,
    to name the failing axiom and its witness, and a scan that finds none
    reports Delta as a "simple-system" failure.
    """
    scaled, den = integer_support(star)
    lattice = star.lattice

    def vec(i):
        return tuple(Q(x, den) for x in scaled[i])

    # Representatives: the indices before their negation's, the first half.
    n = len(scaled)
    m, l, g = n // 2, lattice.rank, lattice.gram
    vs = scaled[:m]

    # Positive system from a generic linear functional (1, t, t^2, ...):
    # sign[p] = +-1 makes sign[p] v_p the positive one of +-v_p.  Each simple
    # root alpha_k brings its column cols[k][p] = (v_p, alpha_k).
    t = 1
    while True:
        powers = [t ** a for a in range(l)]
        f = [sum(map(mul, v, powers)) for v in vs]
        if all(f):
            break
        t += 1
    sign = [1 if x > 0 else -1 for x in f]
    positive = [p if s > 0 else n - 1 - p for p, s in enumerate(sign)]
    simple, cols = [], []
    for p in sorted(range(m), key=lambda p: sign[p] * f[p]):
        s = sign[p]
        if all(s * col[p] <= 0 for col in cols):
            ga = [s * sum(map(mul, row, vs[p])) for row in g]
            cols.append([sum(map(mul, v, ga)) for v in vs])
            simple.append(p)

    coords, cartan = _orbit_certificate(vs, simple, sign, cols, n, l)
    if coords is None:
        failure = _first_failing_pair(vs, lattice, vec, set(scaled))
        if failure is None:
            ids = sorted(positive[p] for p in simple)
            failure = _fail("simple-system", tuple(vec(i) for i in ids))
        return failure

    # Components of the Dynkin diagram, comp[k] the least simple root joined
    # to alpha_k, in the order of their first representative.  Each
    # representative's Delta-coordinates lie in one component, so heads counts
    # each component's positive roots; alpha_k has the norm sign[p] cols[k][p].
    r = len(simple)
    comp = list(range(r))
    for _ in range(r):
        comp = [min(comp[j] for j in range(r) if cartan[k][j]) for k in range(r)]
    heads = Counter(comp[next(k for k, x in enumerate(c) if x)] for c in coords)
    norms = [sign[p] * col[p] for p, col in zip(simple, cols)]
    components = []
    for head, roots in heads.items():
        ks = sorted((k for k in range(r) if comp[k] == head),
                    key=lambda k: positive[simple[k]])
        ids = [positive[simple[k]] for k in ks]
        long = max(norms[k] for k in ks)
        components.append({
            "label": _match_type(len(ks), roots, sum(norms[k] < long for k in ks)),
            "simple_roots": sorted(tuple(Q(x, den) for x in scaled[i]) for i in ids),
            "cartan": tuple(tuple(cartan[i][j] for j in ks) for i in ks),
        })
    components.sort(key=lambda c: (c["label"], c["simple_roots"]))
    label = " x ".join(c["label"] for c in components)
    return RecognitionReport(ok=True, label=label, components=components, failure=None)


def _orbit_certificate(vs, simple, sign, cols, n: int, l: int):
    """(vs in Delta-coordinates, Delta's Cartan matrix) if the n vectors +-vs
    are W Delta, for Delta = sign[p] vs[p] (p in simple) and cols[k][p] =
    (vs[p], alpha_k); (None, None) if not."""
    r = len(simple)
    M = [[sign[p] * col[p] for col in cols] for p in simple]
    inv = invert(M)
    if inv is None or any(2 * x % M[j][j] for row in M for j, x in enumerate(row)):
        return None, None
    cartan = [[2 * x // M[j][j] for j, x in enumerate(row)] for row in M]
    # Delta was picked with M_pk <= 0 off the diagonal, and M is positive
    # definite, so this integral Cartan matrix is of finite type (Humphreys
    # 11.4), as the closure needs.
    roots = _close_under_reflections(cartan, r, limit=n)
    if roots is None:
        return None, None
    X, d = inv
    coords = [[sum(map(mul, row, y)) for row in X] for y in zip(*cols)]
    if any(x % d for c in coords for x in c):
        return None, None
    coords = [tuple([x // d for x in c]) for c in coords]
    # Unless Delta is a basis, the coordinates must rebuild each vector.
    if r < l:
        delta = [[sign[p] * x for x in vs[p]] for p in simple]
        if any(v != tuple([sum(map(mul, c, col)) for col in zip(*delta)])
               for v, c in zip(vs, coords)):
            return None, None
    return (coords, cartan) if roots.issuperset(coords) else (None, None)


def _first_failing_pair(vs, lattice: Lattice, vec, sset) -> RecognitionReport | None:
    """The failure of the first pair in index order that fails an axiom, the
    axioms taken in order, or None; run only on a support that the orbit
    certificate rejected.  Each axiom holds for (x, y) exactly when it holds
    for (-x, y), (x, -y) and (-x, -y): y = k x iff -y = (-k) x iff
    y = (-k)(-x), s_{-x} = s_x, s_x(-y) = -s_x(y), and 2(x, y)/(x, x) only
    changes sign.  As -S_i = S_(n-1-i) comes before S_i in the second half,
    each axiom's first failing pair is one of representatives vs, the first
    indices of S: only pair[p][q] = (v_p, v_q) on them is computed.
    """
    m, g = len(vs), lattice.gram
    gs = [[sum(map(mul, row, v)) for row in g] for v in vs]
    pair = [[0] * m for _ in range(m)]
    for p, x in enumerate(vs):
        row = pair[p]
        for q in range(p + 1):
            row[q] = pair[q][p] = sum(map(mul, x, gs[q]))

    # The form is positive definite, so y is k x iff (x, y)^2 = (x, x)(y, y),
    # with k = (x, y)/(x, x); it is a proper integer multiple iff k is an
    # integer with |k| >= 2.
    for p in range(m):
        npp, row = pair[p][p], pair[p]
        for q in range(m):
            t = row[q]
            if abs(t) >= 2 * npp and t % npp == 0 and t * t == npp * pair[q][q]:
                return _fail("integer-multiple", (vec(p), vec(q)))

    # The image y - c x, c = t/(x, x), has the integer numerators
    # (x, x) y - t x; it is in S iff each divides by (x, x) and the quotient
    # is in sset.
    integral = True
    for p, x in enumerate(vs):
        npp, row = pair[p][p], pair[p]
        for q, y in enumerate(vs):
            t = 2 * row[q]
            if t == 0:
                continue
            integral = integral and t % npp == 0
            img = [npp * b - t * a for a, b in zip(x, y)]
            if any(z % npp for z in img) or tuple([z // npp for z in img]) not in sset:
                return _fail("reflection-closure", (vec(p), vec(q)))
    # Unless some pair had c not an integer, every 2(x, y)/(x, x) was one.
    if not integral:
        for p in range(m):
            for q in range(m):
                if (2 * pair[p][q]) % pair[p][p] != 0:
                    return _fail("cartan-integrality", (vec(p), vec(q)))
    return None


def _match_type(r: int, roots: int, short: int) -> str:
    """The type of a connected component of finite type and rank r, named by
    its number of positive roots and its number of short simple roots
    (Bourbaki, *Lie groups and Lie algebras* VI, Plates I-IX): A_r
    (r(r+1)/2, 0), B_r (r^2, 1), C_r (r^2, r-1), D_r (r(r-1), 0), E6, E7
    and E8 (36, 63 and 120, 0), F4 (24, 2) and G2 (6, 1).  No two types of
    one rank share these counts, so no catalog entry is built and ranks past
    the catalog's are named too.  Recognition passes only components that
    the orbit certificate proved of finite type, so a miss is an
    InternalError.
    """
    for family in "ABCDEFG":
        if _MIN_RANK[family] <= r and (family in "ABCD" or r <= _MAX_RANK[family]) \
                and _COUNTS[family](r) == (roots, short):
            return f"{family}{r}"
    raise InternalError(f"a component of rank {r} with {roots} positive roots and "
                        f"{short} short simple roots matches no type")
