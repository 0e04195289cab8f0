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
from operator import add, mul
from typing import Sequence

from .lattice import InputError, InternalError, Lattice
from .linalg import Mat, clear_denominators, qvec, rank
from .star import EutacticStar

_LABEL_RE = re.compile(r"^([A-G])([1-9][0-9]*)$")
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"A": 8, "B": 8, "C": 8, "D": 8, "E": 8, "F": 4, "G": 2}
MAX_CATALOG_RANK = 8


def parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.match(label.strip()) if isinstance(label, str) else None
    if not m:
        raise InputError(f"bad root system label {label!r}")
    family, n = m.group(1), int(m.group(2))
    if not _MIN_RANK[family] <= n <= _MAX_RANK[family]:
        raise InputError(f"unsupported root system {label!r}")
    return family, n


def catalog_labels(max_rank: int = MAX_CATALOG_RANK) -> list[str]:
    """All irreducible type labels up to max_rank, deterministic order."""
    out = []
    for family in "ABCDEFG":
        for n in range(_MIN_RANK[family], min(_MAX_RANK[family], max_rank) + 1):
            out.append(f"{family}{n}")
    return out


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
    while frontier:
        r = frontier.pop()
        for i in range(n):
            pairing = sum(r[j] * cartan[j][i] for j in range(n))
            img = tuple(r[j] - (pairing if j == i else 0) for j in range(n))
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
    # Dual Coxeter number via (sum_{r>0} r r^T) M = h I.
    s = [[sum(r[i] * r[j] for r in positive) for j in range(n)] for i in range(n)]
    c = [[sum(Q(s[i][k]) * gram[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    h = c[0][0]
    if any(c[i][j] != (h if i == j else 0) for i in range(n) for j in range(n)):
        raise InternalError(f"{label}: sum of root squares is not a multiple of the form")
    if h.denominator != 1 or h <= 0:
        raise InternalError(f"{label}: dual Coxeter number {h} is not a positive integer")
    return RootSystemDescriptor(label=f"{family}{n}", rank=n, cartan=cartan,
                                norm_gram=gram, positive_roots=tuple(positive),
                                dual_coxeter=int(h))


def build_P_lattice(desc: RootSystemDescriptor) -> Lattice:
    """The lattice P = {x : <x, r> in Z for all roots r} with form h<,>.

    On the basis dual to the simple roots the Gram matrix is h M^{-1}, which
    equals sum_{r>0} r r^T and is therefore integral.
    """
    n = desc.rank
    pgram = [[sum(r[i] * r[j] for r in desc.positive_roots) for j in range(n)]
             for i in range(n)]
    if any(sum(pgram[i][k] * desc.norm_gram[k][j] for k in range(n))
           != (desc.dual_coxeter if i == j else 0) for i in range(n) for j in range(n)):
        raise InternalError(f"{desc.label}: sum of r r^T over the positive roots "
                            "is not h M^-1")
    return Lattice(pgram)


def build_star(desc: RootSystemDescriptor) -> EutacticStar:
    """The star {r/h : r positive} on P; its pairing vectors are the roots.

    build_P_lattice proves pgram M = h I, so the derived vectors
    pgram^-1 r are exactly M r / h.
    """
    return EutacticStar(build_P_lattice(desc), desc.positive_roots)


def cartan_matrix(vectors: Sequence[Sequence], lattice: Lattice) -> tuple[tuple[Q, ...], ...]:
    """A_ij = 2(v_i, v_j)/(v_j, v_j) for the given vectors, exact."""
    vs = [qvec(v) for v in vectors]
    inner = [[lattice.inner(x, y) for y in vs] for x in vs]
    for i, x in enumerate(vs):
        if inner[i][i] == 0:
            raise InputError(f"cartan_matrix: vector {i} is isotropic or zero")
    return tuple(tuple(2 * inner[i][j] / inner[j][j] for j in range(len(vs)))
                 for i in range(len(vs)))


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
    image is y - c x with c = 2(x, y)/(x, x).  The one exception is a pair with
    c not an integer, whose image is tested in Fraction; no root system has one.
    """
    if len(S) == 0:
        raise InputError("recognize: S is empty")
    orig = [qvec(v) for v in S]
    for j, v in enumerate(orig):
        if len(v) != lattice.rank:
            raise InputError(f"recognize: vector {j} has length {len(v)}, "
                             f"expected {lattice.rank}")
        if all(x == 0 for x in v):
            raise InputError(f"recognize: vector {j} is zero")
    oset = set(orig)
    for v in orig:
        if tuple(-x for x in v) not in oset:
            raise InputError(f"recognize: S is not symmetric under negation "
                             f"(missing -{[str(x) for x in v]})")

    # Clear denominators once; every later check is ratio-based, so a common
    # integer rescaling changes nothing and keeps the arithmetic in int.
    scaled = [tuple(v) for v in clear_denominators(orig)[0]]
    back = {s: o for s, o in zip(scaled, orig)}
    n = len(scaled)
    g = lattice.gram
    l = lattice.rank

    # pair[i][j] = (v_i, v_j): one G v_j per vector, one triangle of dot products.
    gs = [[sum(map(mul, row, v)) for row in g] for v in scaled]
    pair = [[0] * n for _ in range(n)]
    for i, x in enumerate(scaled):
        row = pair[i]
        for j in range(i + 1):
            row[j] = pair[j][i] = sum(map(mul, x, gs[j]))

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
    sset = set(scaled)
    integral = True
    for i, x in enumerate(scaled):
        nii = pair[i][i]
        for j, y in enumerate(scaled):
            t = 2 * pair[i][j]
            if t == 0:
                continue
            c, r = divmod(t, nii)
            if r == 0:
                if tuple([b - c * a for a, b in zip(x, y)]) in sset:
                    continue
                return _fail("reflection-closure", (S[i], S[j]))
            integral = False
            q = Q(t, nii)
            img = tuple(Q(b) - q * a for a, b in zip(x, y))
            if any(z.denominator != 1 for z in img) or \
                    tuple(int(z) for z in img) not in sset:
                return _fail("reflection-closure", (S[i], S[j]))
    # Unless some pair took the Fraction path, every 2(x, y)/(x, x) was an integer.
    if not integral:
        for i in range(n):
            for j in range(n):
                if (2 * pair[i][j]) % pair[i][i] != 0:
                    return _fail("cartan-integrality", (S[i], S[j]))

    # Orthogonal components.
    comp = list(range(n))

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for i in range(n):
        for j in range(i):
            if pair[i][j] != 0:
                comp[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    # Positive system from a generic linear functional (1, t, t^2, ...).
    t = 1
    while True:
        if all(sum(v[a] * t ** a for a in range(l)) != 0 for v in scaled):
            break
        t += 1
    positive = [i for i in range(n) if sum(scaled[i][a] * t ** a for a in range(l)) > 0]
    pos_set = {scaled[i] for i in positive}
    sums = set()
    for a in pos_set:
        for b in pos_set:
            sums.add(tuple(map(add, a, b)))
    simple = [i for i in positive if scaled[i] not in sums]

    components = []
    for root_ids in groups.values():
        ids = set(root_ids)
        simp = [i for i in simple if i in ids]
        r = len(simp)
        span_rank = rank([scaled[i] for i in root_ids])
        if r != span_rank or rank([scaled[i] for i in simp]) != r:
            return _fail("simple-system", tuple(S[i] for i in simp))
        a = [[2 * pair[x][y] // pair[y][y] for y in simp] for x in simp]
        if any(a[p][q] > 0 for p in range(r) for q in range(r) if p != q):
            return _fail("simple-system", tuple(S[i] for i in simp))
        label = _match_type(a, len(root_ids))
        if label is None:
            return _fail("unrecognized-component", tuple(S[i] for i in simp))
        components.append({
            "label": label,
            "simple_roots": sorted(back[scaled[i]] for i in simp),
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
