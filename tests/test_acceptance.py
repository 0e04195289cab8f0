"""Acceptance suite: every shipped guarantee, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.  Every
numeric comparison is exact (Fraction or int equality, never approximate).
The wall-clock ceilings are part of the contract: they are loose enough for a
slow machine but tight enough to catch complexity regressions.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction as Q

from eustar.certify import certify_extremal, deficiency, min_deficiency
from eustar.cli import main
from eustar.lattice import Lattice
from eustar.qseries import (check_antisymmetry, check_holomorphic,
                            check_singular_support, heat_apply, theta_block)
from eustar.rootsys import build_star, catalog, catalog_labels, recognize_star
from eustar.search import enumerate_stars, verify_theorem
from eustar.star import divisor_multiplicity, is_eutactic, star_from_vectors

from conftest import CORPUS_GRAMS, rational_point, support_set
from test_qseries import product_side_theta


def _verdict(number, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {number}: {text}")
    assert ok, f"acceptance {number}: {text}"


def test_acceptance_1_catalog_eutaxy():
    t0 = time.monotonic()
    bad = [label for label in catalog_labels()
           if not is_eutactic(build_star(catalog(label)))]
    dt = time.monotonic() - t0
    ok = not bad and dt < 5.0
    _verdict(1, ok, f"all {len(catalog_labels())} catalog stars eutactic "
                    f"in {dt:.2f}s (limit 5s); failures: {bad}")


def test_acceptance_2_root_star_certificates():
    expected = {
        "A1": (Q(0), (Q(1, 2),)),
        "A2": (Q(1, 24), (Q(1, 3), Q(1, 3))),
        "A3": (Q(1, 8), (Q(1, 4), Q(1, 4), Q(1, 4))),
        "B2": (Q(1, 12), (Q(1, 3), Q(1, 6))),
        "B3": (Q(1, 4), (Q(1, 5), Q(1, 5), Q(1, 10))),
        "C3": (Q(1, 4), (Q(1, 8), Q(1, 8), Q(1, 4))),
        "G2": (Q(1, 6), (Q(1, 12), Q(1, 4))),
    }
    worst = 0.0
    problems = []
    for label, (value, witness) in sorted(expected.items()):
        star = build_star(catalog(label))
        t0 = time.monotonic()
        cert = certify_extremal(star)
        worst = max(worst, time.monotonic() - t0)
        wanted_threshold = Q(star.size - star.lattice.rank, 24)
        if not (cert.is_extremal and cert.min_value == value
                and cert.threshold == wanted_threshold
                and cert.witness == witness):
            problems.append(label)
    # Rank 4 and up: no witness is frozen here; tests/test_certify.py checks
    # minimum and witness live against the coset oracle on rank 4.  The
    # verdict and the re-evaluated minimum still must hold, and on the larger
    # stars the leaf count at the mean bound (classes with q <= N/12, asked
    # for with an explicit radius) is pinned.
    larger = {"B4": None, "C4": None, "D4": None,
              "D5": 1280, "A6": 2400, "F4": 4736, "B5": 6400}
    for label, leaves in larger.items():
        star = build_star(catalog(label))
        t0 = time.monotonic()
        cert = certify_extremal(star)
        worst = max(worst, time.monotonic() - t0)
        wide = (None if leaves is None
                else min_deficiency(star, radius=Q(star.size, 12))[2])
        if not (cert.is_extremal and cert.min_value == cert.threshold
                and deficiency(star, cert.witness) == cert.min_value
                and wide == leaves):
            problems.append(label)
    ok = not problems and worst < 120.0
    _verdict(2, ok, f"extremality certificates exact for "
                    f"{len(expected) + len(larger)} root stars, slowest "
                    f"{worst:.2f}s (limit 120s); problems: {problems}")


def test_acceptance_3_non_extremal_rejection(tmp_path):
    star = star_from_vectors(Lattice([[2]]), [(Q(1, 2),), (Q(1, 2),)])
    cert = certify_extremal(star)
    lib_ok = (not cert.is_extremal and cert.min_value == 0
              and cert.threshold == Q(1, 24))
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"gram": [[2]], "vectors": [["1/2"], ["1/2"]]}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["expand", str(path), "--order", "480",
                     "--check-holomorphic"])
    lines = buf.getvalue().splitlines()
    cli_ok = code == 1 and "5 -1/1 -1/12" in lines and "5 1/1 -1/12" in lines
    ok = lib_ok and cli_ok
    _verdict(3, ok, "two-vector star on [[2]]: minimum 0 < 1/24 rejected and "
                    "the expansion shows the n24=5 term with deficit -1/12 "
                    f"(exit {code})")


def test_acceptance_4_singular_weight_blocks():
    failures = []
    for label in ("A1", "A2", "B2", "G2"):
        block = theta_block(build_star(catalog(label)), n24_max=480)
        if not (check_singular_support(block) and heat_apply(block).is_zero()
                and check_holomorphic(block) == []):
            failures.append(label)
    ok = not failures
    _verdict(4, ok, "theta blocks of A1, A2, B2, G2 to order 480 sit on the "
                    f"singular shell and the heat operator kills them; "
                    f"failures: {failures}")


def test_acceptance_5_theta_triple_product(a1_star):
    # One vector on a rank-one lattice: eta^0 times the bare theta factor.
    theta = theta_block(a1_star, eta_exponent=1, n24_max=240)
    got = {(n, w[0]): c for (n, w), c in theta.terms.items()}
    ok = (theta.z_den, theta.character_d) == (2, 3) and got == product_side_theta(240)
    _verdict(5, ok, "the A1 theta block equals the product side expansion "
                    "coefficientwise to order 240")


def test_acceptance_6_antisymmetry_and_multiplicity():
    anti_bad = []
    for label in ("A2", "B2"):
        star = build_star(catalog(label))
        block = theta_block(star, n24_max=240)
        support, _ = support_set(star)
        for v in support:
            if not check_antisymmetry(block, v):
                anti_bad.append((label, v))
    mult_bad = []
    for gram in CORPUS_GRAMS:
        for star in enumerate_stars(Lattice(gram)):
            if not certify_extremal(star).is_extremal:
                continue
            support, _ = support_set(star)
            for v in support:
                if divisor_multiplicity(star, v) != 1:
                    mult_bad.append((gram, v))
    ok = not anti_bad and not mult_bad
    _verdict(6, ok, "blocks are odd under every support reflection (A2, B2) "
                    "and support vectors of extremal corpus stars have "
                    f"multiplicity one; failures: {anti_bad + mult_bad}")


def test_acceptance_7_classification_regression():
    t0 = time.monotonic()
    counterexamples = []
    star_total = 0
    extremal_total = 0
    for gram in CORPUS_GRAMS:
        report = verify_theorem(Lattice(gram))
        star_total += report["stars"]
        extremal_total += len(report["extremal"])
        counterexamples.extend(report["counterexamples"])
    dt = time.monotonic() - t0
    ok = not counterexamples and dt < 600.0
    _verdict(7, ok, f"{star_total} stars over {len(CORPUS_GRAMS)} lattices, "
                    f"{extremal_total} extremal, every one a spanning root "
                    f"system, {len(counterexamples)} counterexamples, "
                    f"in {dt:.2f}s (limit 600s)")


def test_acceptance_8_recognition_round_trip():
    t0 = time.monotonic()
    wrong = []
    for label in catalog_labels():
        report = recognize_star(build_star(catalog(label)))
        if not report.ok or report.label != label:
            wrong.append(label)
    dt = time.monotonic() - t0
    ok = not wrong and dt < 30.0
    _verdict(8, ok, f"recognition returns every catalog label unchanged "
                    f"in {dt:.2f}s (limit 30s); wrong: {wrong}")


def test_acceptance_9_optimizer_soundness():
    rng = random.Random(20240816)
    bad = 0
    checked = 0
    for gram in CORPUS_GRAMS:
        for star in enumerate_stars(Lattice(gram)):
            value, witness, _ = min_deficiency(star)
            if deficiency(star, witness) != value:
                bad += 1
            for _ in range(1000):
                x = rational_point(rng, star.lattice.rank)
                checked += 1
                if deficiency(star, x) < value:
                    bad += 1
    ok = bad == 0
    _verdict(9, ok, f"certified minima under {checked} random rational "
                    f"points across the corpus stars, witnesses exact; "
                    f"violations: {bad}")
