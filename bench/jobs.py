"""The benchmark's workloads: the jobs each one runs, their inputs and exit codes.

A job is either one ``eustar`` command (``argv``, with ``{input}`` standing for
the seeded input file) or, where no command exists, one ``enumerate_stars``
call on a lattice file (``argv`` is None).  Jobs of a workload run one after
another in one fresh interpreter, in the order listed here.

Jobs left out for being too slow today, to add once ROADMAP items 1 and 3
land: ``extremal`` on D4 (20 s) and B4 (over 500 s), and ``search`` on the B3
and C3 weight lattices (74 s to 106 s).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str          # unique in its workload; names the recorded output file
    input: str         # base input file under inputs/
    argv: tuple | None  # eustar CLI arguments, or None for enumerate_stars
    exit_code: int     # the verdict: 0 property holds, 1 it fails


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    # Whether seeds reorder the star vectors.  theta_block multiplies the theta
    # factors in star order and its intermediate products grow differently for
    # different orders (B3 at order 480: 1.59M to 2.70M multiply pairs over
    # three orders), so a reordered star is a different amount of work and
    # expand seeds would not be equally costly.
    shuffle: bool = True
    # Per-layer metrics this workload should drive above 0; a traced run says
    # so on stderr when one reads 0.
    exercises: tuple = ()


def _command(name, command, inp, *flags, exit_code=0):
    return Job(name, inp, (command, "{input}") + flags, exit_code)


def _enumerate(name, inp):
    return Job(name, inp, None, 0)


# Few, large stars: certify and linalg do nearly all the work.
EXTREMAL = Workload("extremal", (
    _command("G2", "extremal", "G2.star.json"),
    _command("A3", "extremal", "A3.star.json"),
    _command("B3", "extremal", "B3.star.json"),
    _command("A4", "extremal", "A4.star.json"),
    _command("two_vector", "extremal", "two_vector.star.json", exit_code=1),
    _command("G2_weight_nonextremal", "extremal", "G2_weight_nonextremal.star.json",
             exit_code=1),
), exercises=(
    "certify.min_deficiency.calls", "certify.cells_examined", "certify.deficiency.calls",
    "linalg.solve.calls", "linalg.invert.calls", "linalg.rref.calls",
    "linalg.nullspace.calls", "linalg.rank.calls", "linalg.det.calls", "linalg.dot.calls",
    "star.is_eutactic.calls", "star.load_star.calls", "lattice.Lattice.calls",
    "cli.main.self_s",
))

# Theta-block expansion: qseries.multiply dominates, certify is never called.
EXPAND = Workload("expand", (
    _command("A3_singular", "expand", "A3.star.json", "--order", "720",
             "--check-singular"),
    _command("B3_heat", "expand", "B3.star.json", "--order", "480", "--heat"),
    _command("G2_dump", "expand", "G2.star.json", "--order", "1440"),
    _command("two_vector_holomorphic", "expand", "two_vector.star.json",
             "--order", "480", "--check-holomorphic", exit_code=1),
), shuffle=False, exercises=(
    "qseries.multiply.calls", "qseries.multiply.pairs", "qseries.multiply.terms_out",
    "qseries.theta_block.s", "qseries.eta_power.s", "qseries.theta_factor.s",
    "qseries.heat_apply.s", "qseries.check_singular_support.s", "qseries.dump_series.s",
    "qseries.theta_block.terms", "linalg.invert.calls", "star.load_star.calls",
    "cli.main.self_s",
))

# Many small stars (N <= 12): enumeration, the PSD tests and star_from_pairings,
# then certify and recognize on each.
SEARCH = Workload("search", tuple(
    _command(f"corpus{i}", "search", f"corpus{i}.lattice.json") for i in range(7)
) + (
    _command("A3_weight", "search", "A3_weight.lattice.json"),
    _command("G2_weight", "search", "G2_weight.lattice.json"),
    _enumerate("B3_weight_enumerate", "B3_weight.lattice.json"),
    _enumerate("C3_weight_enumerate", "C3_weight.lattice.json"),
    _enumerate("A4_weight_enumerate", "A4_weight.lattice.json"),
), exercises=(
    "search.enumerate_stars.calls", "search.enumerate_stars.self_s",
    "search.enumerate_stars.stars", "search.verify_theorem.self_s",
    "star.star_from_pairings.calls", "star.support_set.calls", "star.is_eutactic.calls",
    "certify.min_deficiency.calls", "certify.cells_examined", "linalg.solve.calls",
    "linalg.dot.calls", "linalg.rank.calls", "rootsys.recognize.calls",
    "lattice.load_lattice.s", "lattice.Lattice.calls", "cli.main.self_s",
))

# Fraction reflection closure in rootsys.recognize; the only workload that
# measures rootsys, since recognition is negligible in search.
RECOGNIZE = Workload("recognize", tuple(
    _command(label, "recognize", f"{label}.star.json")
    for label in ("A8", "B8", "C8", "D8", "E6", "E7", "E8")
) + (
    _command("not_a_root_system", "recognize", "not_a_root_system.star.json",
             exit_code=1),
), exercises=(
    "rootsys.recognize.calls", "rootsys.catalog.hits", "rootsys.catalog.misses",
    "rootsys.catalog.s", "star.support_set.calls", "star.load_star.calls",
    "linalg.rank.calls", "linalg.det.calls", "lattice.Lattice.calls", "cli.main.self_s",
))

WORKLOADS = {w.name: w for w in (EXTREMAL, EXPAND, SEARCH, RECOGNIZE)}
