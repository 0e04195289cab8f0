"""Root-system catalog, induced lattices and stars, and recognition.

Every catalog type is realized in simple-root coordinates (Bourbaki numbering):
the ambient form has Gram M_ij = <a_i, a_j>, the symmetrized Cartan matrix
normalized so long roots have norm 2, and positive roots are small non-negative
integer tuples.  The dual Coxeter number h is computed from the defining
identity sum_{r>0} <r, z>^2 = h <z, z>, never from a table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from operator import mul
from typing import Sequence

from .lattice import InputError, InternalError, Lattice
from .linalg import Mat, clear_denominators, qvec, rank
from .star import EutacticStar

_LABEL_RE = re.compile(r"^([A-G])([1-9][0-9]*)$")
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"A": 8, "B": 8, "C": 8, "D": 8, "E": 8, "F": 4, "G": 2}


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


def _norms(family: str, n: int) -> tuple[Q, ...]:
    """Squared lengths of the simple roots, long roots normalized to 2."""
    if family in "ADE":
        return tuple(Q(2) for _ in range(n))
    if family == "B":
        return tuple(Q(2) if i < n - 1 else Q(1) for i in range(n))
    if family == "C":
        return tuple(Q(1) if i < n - 1 else Q(2) for i in range(n))
    if family == "F":
        return (Q(2), Q(2), Q(1), Q(1))
    return (Q(2, 3), Q(2))  # G2


@dataclass(frozen=True)
class RootSystemDescriptor:
    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    norm_gram: Mat  # Gram of <,> on the simple-root basis
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    dual_coxeter: int


def _close_under_reflections(cartan, n: int) -> set[tuple[int, ...]]:
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    cols = list(zip(*cartan))
    while frontier:
        r = frontier.pop()
        for i, col in enumerate(cols):
            pairing = sum(map(mul, r, col))
            if pairing == 0:
                continue
            img = list(r)
            img[i] -= pairing
            img = tuple(img)
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    return roots


@lru_cache(maxsize=None)
def catalog(label: str) -> RootSystemDescriptor:
    """Descriptor for an irreducible type: roots, form, dual Coxeter number."""
    family, n = parse_label(label)
    cartan = cartan_matrix_for(family, n)
    norms = _norms(family, n)
    # M_ij = <a_i, a_j> = A_ij * <a_j, a_j> / 2; symmetry is a consistency check.
    gram = tuple(tuple(Q(cartan[i][j]) * norms[j] / 2 for j in range(n)) for i in range(n))
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise InternalError(f"{label}: the form on the simple roots is not symmetric")
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


def recognize(S: Sequence[Sequence], lattice: Lattice) -> RecognitionReport:
    """Decide whether S is a root system for the lattice's form, and which one.

    Checks, in order: no proper integer multiples, mutual distinctness,
    closure under the reflections x -> x - (2(v, x)/(v, v)) v, and integrality
    of all ratios 2(x, y)/(x, x); the first failing pair in index order is the
    witness.  A passing S is decomposed into orthogonal components and each
    component is matched against the catalog by Dynkin diagram isomorphism, so
    the verdict is invariant under rescaling S.

    S is scaled to int by a common denominator, and every check runs in int:
    only parallel vectors are compared for integer multiples, and a reflection
    image is y - c x with c = 2(x, y)/(x, x), looked up by a packed integer
    key.  A pair with c = t/(x, x) not an integer, which no root system has,
    has the image ((x, x) y - t x)/(x, x), tested on its integer numerators.

    The last two checks and everything after them run on a quarter of the
    pairs.  Once S = -S and its vectors are distinct, x -> -x is an involution
    of the indices without a fixed point.  Since s_{-x} = s_x and
    s_x(-y) = -s_x(y), the pair (x, y) fails closure, or integrality, exactly
    when (-x, y), (x, -y) and (-x, -y) do.  So the first failing pair in index
    order is a pair of representatives, indices that come before their
    negation's, and only those pairs are scanned and paired.

    Past the four checks S is a reduced crystallographic root system.  Its
    positive roots, taken in increasing order of a generic functional f, are
    each simple iff they pair <= 0 with every simple root found before them:
    distinct simple roots pair <= 0, and a positive root that is not simple
    pairs > 0 with some simple root of its support, each of which has smaller
    f (Humphreys, *Introduction to Lie algebras and representation theory*,
    sections 10.1 and 10.2).  This is the simple system, which is unique for
    the positive system; the orthogonal components come from the same pair
    matrix.
    """
    if len(S) == 0:
        raise InputError("recognize: S is empty")
    # Clear denominators once; every later check is ratio-based, so a common
    # integer rescaling changes nothing and keeps the arithmetic in int.
    ints, den = clear_denominators(S)
    scaled = [tuple(v) for v in ints]
    for j, v in enumerate(scaled):
        if len(v) != lattice.rank:
            raise InputError(f"recognize: vector {j} has length {len(v)}, "
                             f"expected {lattice.rank}")
        if not any(v):
            raise InputError(f"recognize: vector {j} is zero")
    sset = set(scaled)
    for j, v in enumerate(scaled):
        if tuple([-x for x in v]) not in sset:
            raise InputError(f"recognize: S is not symmetric under negation "
                             f"(missing -{[str(x) for x in qvec(S[j])]})")
    n = len(scaled)

    # Only vectors on one line can be integer multiples.  v_i = mult[i] p_i
    # with p_i primitive and its first nonzero entry positive, so v_j is an
    # integer multiple of v_i iff p_j = p_i and mult[i] divides mult[j].
    mult, prim = [], []
    lines: dict[tuple, list[int]] = {}
    for i, v in enumerate(scaled):
        d = math.gcd(*v)
        if next(a for a in v if a != 0) < 0:
            d = -d
        mult.append(d)
        prim.append(tuple(a // d for a in v))
        lines.setdefault(prim[i], []).append(i)
    for i in range(n):
        a = mult[i]
        for j in lines[prim[i]]:
            b = mult[j]
            if j != i and b % a == 0 and abs(b // a) >= 2:
                return _fail("integer-multiple", (S[i], S[j]))
    seen: dict[tuple, int] = {}
    for i, v in enumerate(scaled):
        if v in seen:
            return _fail("distinct", (S[seen[v]], S[i]))
        seen[v] = i

    # Representatives: the indices before their negation's, which negs holds.
    # rep[i] is the position among them of i or of its negation.
    reps, negs, rep = [], [], [0] * n
    for i, v in enumerate(scaled):
        j = seen[tuple([-x for x in v])]
        if i < j:
            rep[i] = rep[j] = len(reps)
            reps.append(i)
            negs.append(j)
    vs = [scaled[i] for i in reps]
    m, l = len(vs), lattice.rank

    # pair[p][q] = (v_p, v_q) on the representatives; every other entry of the
    # full matrix is one of these up to sign.
    g = lattice.gram
    gs = [[sum(map(mul, row, v)) for row in g] for v in vs]
    pair = [[0] * m for _ in range(m)]
    for p, x in enumerate(vs):
        row = pair[p]
        for q in range(p + 1):
            row[q] = pair[q][p] = sum(map(mul, x, gs[q]))

    # An image y - c x with integer c is looked up by its key, sum_a v_a R^a:
    # key is linear, so key(y - c x) = key(y) - c key(x).  By Cauchy-Schwarz,
    # c^2 <= 4 (y, y) / (x, x), so |c| <= cmax, and every entry of y - c x - w
    # for w in S is at most (2 + cmax) times the largest entry of S, which is
    # less than R; then equal keys mean equal vectors.
    norms = [pair[p][p] for p in range(m)]
    cmax = math.isqrt(4 * max(norms) // min(norms))
    R = (2 + cmax) * max(abs(a) for v in vs for a in v) + 1
    powers = [R ** a for a in range(l)]
    keys = [sum(map(mul, v, powers)) for v in vs]
    kset = set(keys) | {-k for k in keys}
    integral = True
    for p, kx in enumerate(keys):
        npp, row = norms[p], pair[p]
        for q, ky in enumerate(keys):
            t = 2 * row[q]
            if t == 0:
                continue
            c, r = divmod(t, npp)
            if r == 0:
                if ky - c * kx in kset:
                    continue
                return _fail("reflection-closure", (S[reps[p]], S[reps[q]]))
            integral = False
            img = [npp * b - t * a for a, b in zip(vs[p], vs[q])]
            if any(z % npp for z in img) or tuple([z // npp for z in img]) not in sset:
                return _fail("reflection-closure", (S[reps[p]], S[reps[q]]))
    # Unless some pair had c not an integer, every 2(x, y)/(x, x) was one.
    if not integral:
        for p in range(m):
            for q in range(m):
                if (2 * pair[p][q]) % pair[p][p] != 0:
                    return _fail("cartan-integrality", (S[reps[p]], S[reps[q]]))

    # Orthogonal components, on the representatives; v and -v share one.
    # comp[p] is the first representative of p's component.
    comp = [-1] * m
    for p in range(m):
        if comp[p] < 0:
            comp[p] = p
            stack = [p]
            while stack:
                for q, x in enumerate(pair[stack.pop()]):
                    if x and comp[q] < 0:
                        comp[q] = p
                        stack.append(q)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(comp[rep[i]], []).append(i)

    # Positive system from a generic linear functional (1, t, t^2, ...):
    # sign[p] = +-1 makes sign[p] v_p the positive one of +-v_p, and
    # sign[p] sign[q] pair[p][q] is the pairing of the two positive ones.
    t = 1
    while True:
        f = [sum(v[a] * t ** a for a in range(l)) for v in vs]
        if all(f):
            break
        t += 1
    sign = [1 if x > 0 else -1 for x in f]
    positive = [i if s > 0 else j for i, j, s in zip(reps, negs, sign)]
    simple: list[int] = []
    for p in sorted(range(m), key=lambda p: sign[p] * f[p]):
        row, s = pair[p], sign[p]
        if all(s * sign[q] * row[q] <= 0 for q in simple):
            simple.append(p)

    components = []
    for head, root_ids in groups.items():
        simp = sorted((p for p in simple if comp[p] == head), key=positive.__getitem__)
        ids = [positive[p] for p in simp]
        r = len(simp)
        span_rank = rank([vs[p] for p in range(m) if comp[p] == head])
        if r != span_rank or rank([vs[p] for p in simp]) != r:
            return _fail("simple-system", tuple(S[i] for i in ids))
        a = [[2 * sign[x] * sign[y] * pair[x][y] // pair[y][y] for y in simp] for x in simp]
        label = _match_type(a, len(root_ids))
        if label is None:
            return _fail("unrecognized-component", tuple(S[i] for i in ids))
        components.append({
            "label": label,
            "simple_roots": sorted(tuple(Q(x, den) for x in scaled[i]) for i in ids),
            "cartan": tuple(tuple(row) for row in a),
        })
    components.sort(key=lambda c: (c["label"], c["simple_roots"]))
    label = " x ".join(c["label"] for c in components)
    return RecognitionReport(ok=True, label=label, components=components, failure=None)


def _match_type(a: list[list[int]], n_roots: int) -> str | None:
    """Match a simple-root Cartan matrix against the catalog diagrams.

    The Cartan matrix is compared with each diagram of its rank, by a profile
    of its edges and then by isomorphism, before any catalog entry is built:
    only the entry of the matching label is, for its root count.
    """
    r = len(a)

    def profile(m):
        return sorted(sorted((m[i][j], m[j][i]) for j in range(r) if j != i and m[i][j])
                      for i in range(r))

    def isomorphic(ref, perm):
        # Extend perm (a[perm[i]][perm[j]] == ref[i][j] so far) to all of range(r).
        i = len(perm)
        if i == r:
            return True
        for p in range(r):
            if p not in perm and a[p][p] == ref[i][i] and \
                    all(a[p][q] == ref[i][j] and a[q][p] == ref[j][i]
                        for j, q in enumerate(perm)):
                perm.append(p)
                if isomorphic(ref, perm):
                    return True
                perm.pop()
        return False

    prof = profile(a)
    for lab in catalog_labels():
        family, rk = parse_label(lab)
        if rk != r:
            continue
        ref = cartan_matrix_for(family, rk)
        if profile(ref) == prof and isomorphic(ref, []) \
                and 2 * len(catalog(lab).positive_roots) == n_roots:
            return lab
    return None
