"""Command line interface: check, extremal, expand, catalog, search, recognize.

Exit codes: 0 when the queried property holds, 1 when it fails, 2 on malformed
input.  All output is deterministic and depends only on argv and the files it
names: JSON with sorted keys, rationals as p/q in lowest terms, series dumps
sorted by (n24, exponent).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import qseries, rootsys, search
from .certify import certify_extremal
from .lattice import InputError, format_rational, format_vector, load_lattice
from .star import EutacticStar, dump_star, is_eutactic, load_star


def _load_star_arg(args) -> EutacticStar:
    if args.type and args.star:
        raise InputError("give a star file or --type LABEL, not both")
    if args.type:
        return rootsys.build_star(rootsys.catalog(args.type))
    if args.star:
        return load_star(args.star)
    raise InputError("need a star file or --type LABEL")


def cmd_check(args) -> int:
    star = load_star(args.star)
    ok = is_eutactic(star)
    print("eutactic" if ok else "not eutactic")
    return 0 if ok else 1


def cmd_extremal(args) -> int:
    star = _load_star_arg(args)
    cert = certify_extremal(star)
    print(cert.to_json())
    return 0 if cert.is_extremal else 1


def cmd_expand(args) -> int:
    star = _load_star_arg(args)
    if args.order < 0:
        raise InputError("--order must be non-negative")
    block = qseries.theta_block(star, eta_exponent=args.eta, n24_max=args.order)
    if args.check_holomorphic:
        bad = qseries.check_holomorphic(block)
        for n24, w, deficit in bad:
            wtxt = ",".join(str(x) for x in w)
            print(f"{n24} {wtxt}/{block.z_den} {format_rational(deficit)}")
        print("holomorphic" if not bad else f"{len(bad)} violating terms")
        return 0 if not bad else 1
    if args.check_singular:
        ok = qseries.check_singular_support(block)
        print("singular support" if ok else "support off the singular shell")
        return 0 if ok else 1
    if args.heat:
        heated = qseries.heat_apply(block)
        out = qseries.dump_series(heated)
        if out:
            print(out)
        print("heat: zero" if heated.is_zero() else "heat: nonzero")
        return 0 if heated.is_zero() else 1
    out = qseries.dump_series(block)
    if out:
        print(out)
    return 0


def cmd_catalog(args) -> int:
    desc = rootsys.catalog(args.type)
    if args.lattice:
        lat = rootsys.build_P_lattice(desc)
        print(json.dumps(lat.to_json_dict(), sort_keys=True))
    else:
        star = rootsys.build_star(desc)
        print(dump_star(star))
    return 0


def cmd_search(args) -> int:
    lattice = load_lattice(args.lattice)
    report = search.verify_theorem(lattice)
    print(json.dumps(report, sort_keys=True))
    return 0 if not report["counterexamples"] else 1


def cmd_recognize(args) -> int:
    report = rootsys.recognize_star(load_star(args.star))
    if report.ok:
        print(report.label)
        return 0
    witness = [format_vector(v) for v in report.failure["witness"]]
    print(json.dumps({"axiom": report.failure["axiom"], "witness": witness},
                     sort_keys=True))
    return 1


def _add_star_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("star", nargs="?", help="star JSON file")
    p.add_argument("--type", help="catalog label (e.g. A2) instead of a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eustar",
        description="Exact eutactic star toolkit: eutaxy, extremality, "
                    "theta blocks, root systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="is the star eutactic?")
    p.add_argument("star", help="star JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extremal", help="exact extremality certificate")
    _add_star_source(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("expand", help="theta block Fourier expansion")
    _add_star_source(p)
    p.add_argument("--order", type=int, default=qseries.DEFAULT_ORDER,
                   help="n24 truncation (default %(default)s)")
    p.add_argument("--eta", type=int, help="eta exponent (default: lattice rank)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--check-holomorphic", action="store_true",
                       help="exit 0 iff no term violates 2n >= (l,l)")
    group.add_argument("--check-singular", action="store_true",
                       help="exit 0 iff all terms satisfy 2n = (l,l)")
    group.add_argument("--heat", action="store_true",
                       help="apply the heat operator; exit 0 iff it annihilates")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("catalog", help="emit a catalog star or its lattice")
    p.add_argument("--type", required=True, help="catalog label (e.g. G2)")
    p.add_argument("--lattice", action="store_true",
                   help="emit the lattice instead of the star")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", help="enumerate stars and check the theorem")
    p.add_argument("lattice", help="lattice JSON file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("recognize", help="recognize the star's support set")
    p.add_argument("star", help="star JSON file")
    p.set_defaults(func=cmd_recognize)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call; parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
