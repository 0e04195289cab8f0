"""Exact arithmetic for eutactic stars on integral positive definite lattices:
eutaxy checks, extremality certificates, theta block expansions, root system
catalog and recognition, and complete star enumeration."""

from .certify import (ExtremalityCertificate, certify_extremal, certify_if_extremal,
                      deficiency, min_deficiency)
from .lattice import InputError, InternalError, Lattice, load_lattice
from .qseries import (FourierSeries, check_antisymmetry, check_holomorphic,
                      check_singular_support, dump_series, heat_apply, reflect_series,
                      theta_block)
from .rootsys import (RecognitionReport, RootSystemDescriptor, build_P_lattice,
                      build_star, catalog, catalog_labels, recognize_star)
from .search import canonical_pairings, enumerate_stars, verify_theorem
from .star import (EutacticStar, divisor_multiplicity, dump_star, is_eutactic,
                   load_star, star_from_pairings, star_from_vectors)

__all__ = [
    "ExtremalityCertificate", "certify_extremal", "certify_if_extremal",
    "deficiency", "min_deficiency", "InputError", "InternalError", "Lattice", "load_lattice",
    "FourierSeries",
    "check_antisymmetry", "check_holomorphic", "check_singular_support",
    "dump_series", "heat_apply", "reflect_series",
    "theta_block", "RecognitionReport", "RootSystemDescriptor",
    "build_P_lattice", "build_star", "catalog", "catalog_labels",
    "recognize_star", "canonical_pairings", "enumerate_stars", "verify_theorem",
    "EutacticStar", "divisor_multiplicity", "dump_star", "is_eutactic",
    "load_star", "star_from_pairings", "star_from_vectors",
]

__version__ = "0.1.0"
