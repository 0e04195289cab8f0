"""Seeded inputs and an independent correctness oracle.

Nothing here imports eustar: inputs are derived from the recorded base files
with the standard library, and every output is checked with separate code.

Seed 0 is the identity.  Any other seed changes the lattice basis by a signed
permutation P (Gram' = P^T G P, coordinates x' = P^T x, pairings u' = P^T u)
and then shuffles the star vectors (where the workload allows it, see
``jobs.Workload.shuffle``) and flips their signs.  None of this moves
a verdict, a minimum, a threshold, a label or a count, so every seed asks for
the same answers; what moves (witnesses, exponents, orders) is mapped or
re-derived here before comparing.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction as Q

_TERM = re.compile(r"^(\d+) (-?\d+(?:,-?\d+)*)/(\d+) (\S+)$")


class Transform:
    """The change of basis and star reordering that one seed applies to one file."""

    def __init__(self, seed: int, filename: str, rank: int, size: int, shuffle: bool):
        rng = random.Random(f"{seed}:{filename}")
        self.perm = list(range(rank))
        self.signs = [1] * rank
        self.order = list(range(size))
        self.flips = [1] * size
        if seed == 0:
            return
        rng.shuffle(self.perm)
        self.signs = [rng.choice((1, -1)) for _ in range(rank)]
        rng.shuffle(self.order)
        if not shuffle:
            self.order = list(range(size))
        self.flips = [rng.choice((1, -1)) for _ in range(size)]

    def covector(self, u):
        """P^T u: pairings and series exponents in the new basis."""
        return tuple(s * u[p] for s, p in zip(self.signs, self.perm))

    def gram(self, g):
        return [[self.signs[i] * self.signs[j] * g[self.perm[i]][self.perm[j]]
                 for j in range(len(g))] for i in range(len(g))]

    @property
    def block_sign(self) -> int:
        """Theta factors are odd, so each flipped star vector negates the block."""
        return math.prod(self.flips)


def _fmt(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def seed_inputs(base: dict, seed: int, shuffle: bool) -> tuple[dict, dict]:
    """Seeded copies of the base input files, and the transform of each."""
    files, transforms = {}, {}
    for name, data in base.items():
        vectors = data.get("vectors", [])
        t = Transform(seed, name, len(data["gram"]), len(vectors), shuffle)
        out = {"gram": t.gram(data["gram"])}
        if "vectors" in data:
            # Coordinates transform like pairings for a signed permutation.
            moved = [t.covector([Q(x) for x in v]) for v in vectors]
            out["vectors"] = [[_fmt(f * x) for x in moved[i]]
                              for i, f in zip(t.order, t.flips)]
        files[name] = out
        transforms[name] = t
    return files, transforms


# ---- independent arithmetic -------------------------------------------------

def star_pairings(data: dict) -> list[tuple[int, ...]]:
    """u_j = G s_j for every star vector, which must be integral."""
    g = data["gram"]
    out = []
    for v in data["vectors"]:
        u = [sum(Q(g[i][k]) * Q(v[k]) for k in range(len(g))) for i in range(len(g))]
        if any(x.denominator != 1 for x in u):
            raise ValueError("star vector outside the dual lattice")
        out.append(tuple(int(x) for x in u))
    return out


def closed_form_b(t: Q) -> Q:
    """B(t) = dist(t - 1/2, Z)^2 / 2, written differently from the package."""
    y = t - Q(1, 2)
    return (y - round(y)) ** 2 / 2


def deficiency_at(pairings, point) -> Q:
    return sum((closed_form_b(sum(Q(c) * x for c, x in zip(u, point))) for u in pairings),
               Q(0))


def canonical(pairings) -> tuple:
    """Sign-normalise each row (first nonzero entry positive) and sort."""
    rows = []
    for u in pairings:
        lead = next((x for x in u if x), 0)
        rows.append(tuple(u) if lead > 0 else tuple(-x for x in u))
    return tuple(sorted(rows, reverse=True))


def is_eutactic(gram, pairings) -> bool:
    n = len(gram)
    return all(sum(u[i] * u[j] for u in pairings) == gram[i][j]
               for i in range(n) for j in range(n))


# ---- output checks ----------------------------------------------------------

def _check_witness(cert: dict, pairings, rank: int) -> str | None:
    witness = [Q(x) for x in cert["witness"]]
    if len(witness) != rank or not all(0 <= x < 1 for x in witness):
        return f"witness {cert['witness']} is not a point of [0,1)^{rank}"
    if deficiency_at(pairings, witness) != Q(cert["min"]):
        return f"deficiency at witness {cert['witness']} is not the minimum {cert['min']}"
    return None


def _check_extremal(got: str, want: str, data: dict, t: Transform) -> str | None:
    got_c, want_c = json.loads(got), json.loads(want)
    if sorted(got_c) != sorted(want_c):
        return f"certificate keys {sorted(got_c)}"
    for key in ("extremal", "min", "threshold"):
        if got_c[key] != want_c[key]:
            return f"{key} {got_c[key]!r}, expected {want_c[key]!r}"
    return _check_witness(got_c, star_pairings(data), len(data["gram"]))


def _term_key(line: str):
    m = _TERM.match(line)
    return (int(m.group(1)), tuple(int(x) for x in m.group(2).split(",")))


def _map_series(want: str, t: Transform, coefficients: bool) -> str:
    """Move a recorded dump (or holomorphy report) into the seeded basis.

    Exponents w map to P^T w; coefficients change sign with the block, while
    holomorphy deficits do not.  Lines that are not terms are kept in place
    after the re-sorted terms, which is where the command prints them.
    """
    terms, tail = [], []
    for line in want.splitlines():
        m = _TERM.match(line)
        if not m:
            tail.append(line)
            continue
        w = t.covector([int(x) for x in m.group(2).split(",")])
        value = m.group(4)
        if coefficients:
            value = _fmt(Q(value) * t.block_sign)
        terms.append(f"{m.group(1)} {','.join(map(str, w))}/{m.group(3)} {value}")
    terms.sort(key=_term_key)
    return "\n".join(terms + tail) + ("\n" if want.endswith("\n") else "")


def _check_search(got: str, want: str, data: dict, t: Transform) -> str | None:
    got_r, want_r = json.loads(got), json.loads(want)
    if got_r["stars"] != want_r["stars"]:
        return f"{got_r['stars']} stars, expected {want_r['stars']}"
    if got_r["counterexamples"] or want_r["counterexamples"]:
        return "counterexamples reported"
    gram = data["gram"]
    expected = {canonical(t.covector(u) for u in e["pairings"]): e
                for e in want_r["extremal"]}
    found = {}
    for e in got_r["extremal"]:
        pairings = [tuple(u) for u in e["pairings"]]
        vectors = [[Q(x) for x in v] for v in e["vectors"]]
        if star_pairings({"gram": gram, "vectors": vectors}) != pairings:
            return f"vectors and pairings disagree in {e['pairings']}"
        bad = _check_witness(e["certificate"], pairings, len(gram))
        if bad:
            return bad
        found[canonical(pairings)] = e
    if set(found) != set(expected) or len(found) != len(got_r["extremal"]):
        return f"extremal stars {sorted(found)}, expected {sorted(expected)}"
    for key, e in found.items():
        w = expected[key]
        for field in ("types", "rank_match"):
            if e[field] != w[field]:
                return f"{field} {e[field]!r}, expected {w[field]!r}"
        for field in ("extremal", "min", "threshold"):
            if e["certificate"][field] != w["certificate"][field]:
                return f"certificate {field} {e['certificate'][field]!r}"
    return None


def _check_enumerate(got: str, want: str, data: dict, t: Transform) -> str | None:
    got_s, want_s = json.loads(got), json.loads(want)
    if len(got_s) != len(want_s):
        return f"{len(got_s)} stars, expected {len(want_s)}"
    gram = data["gram"]
    found = set()
    for star in got_s:
        if not is_eutactic(gram, star):
            return f"star {star} is not eutactic"
        found.add(canonical(star))
    expected = {canonical(t.covector(u) for u in star) for star in want_s}
    if len(found) != len(got_s) or found != expected:
        return "star set differs from the recorded one"
    return None


def _reflect(gram, x, y):
    """y - 2 (x, y) / (x, x) x in the form given by gram."""
    def inner(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))
    c = 2 * inner(x, y) / inner(x, x)
    return tuple(b - c * a for a, b in zip(x, y))


def _check_recognize(got: str, want: str, data: dict, t: Transform) -> str | None:
    got_f, want_f = json.loads(got), json.loads(want)
    if got_f["axiom"] != want_f["axiom"]:
        return f"axiom {got_f['axiom']!r}, expected {want_f['axiom']!r}"
    vectors = {tuple(Q(x) for x in v) for v in data["vectors"]}
    support = vectors | {tuple(-x for x in v) for v in vectors}
    x, y = (tuple(Q(c) for c in v) for v in got_f["witness"])
    if x not in support or y not in support:
        return "witness is not in the support"
    if got_f["axiom"] == "reflection-closure" and _reflect(data["gram"], x, y) in support:
        return "witness reflection lies in the support"
    return None


def check(job, code: int, got: str, want: str, seed: int, data: dict,
          t: Transform) -> str | None:
    """None if the job's output is right, else the reason it is wrong.

    At seed 0 the output must equal the recorded one byte for byte; at every
    seed the recorded answer, moved into the seeded basis, must be found.
    """
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}"
    if seed == 0 and got != want:
        return "output differs from the recorded seed-0 output"
    command = job.argv[0] if job.argv else "enumerate"
    try:
        if command == "extremal":
            return _check_extremal(got, want, data, t)
        if command == "expand":
            mapped = _map_series(want, t, coefficients="--check-holomorphic" not in job.argv)
            return None if got == mapped else "series differs from the recorded one"
        if command == "search":
            return _check_search(got, want, data, t)
        if command == "enumerate":
            return _check_enumerate(got, want, data, t)
        if command == "recognize":
            if job.exit_code == 0:
                return None if got == want else f"label {got.strip()!r}"
            return _check_recognize(got, want, data, t)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
    return f"no check for command {command!r}"
