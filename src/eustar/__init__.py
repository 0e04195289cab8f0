"""Exact arithmetic for eutactic stars on integral positive definite lattices:
eutaxy checks, extremality certificates, theta block expansions, root system
catalog and recognition, and complete star enumeration."""

from .certify import (ExtremalityCertificate, b_eval, certify_extremal,
                      deficiency, min_deficiency)
from .lattice import InputError, InternalError, Lattice, load_lattice
from .qseries import (FourierSeries, check_antisymmetry, check_holomorphic,
                      check_singular_support, dump_series, eta_power, heat_apply,
                      multiply, reflect_series, theta_block, theta_factor)
from .rootsys import (RecognitionReport, RootSystemDescriptor, build_P_lattice,
                      build_star, cartan_matrix, catalog, catalog_labels, recognize)
from .search import canonical_pairings, enumerate_stars, verify_theorem
from .star import (EutacticStar, divisor_multiplicity, dump_star, embed,
                   is_eutactic, load_star, star_from_pairings, star_from_vectors,
                   support_set)

__all__ = [
    "ExtremalityCertificate", "b_eval", "certify_extremal", "deficiency",
    "min_deficiency", "InputError", "InternalError", "Lattice", "load_lattice",
    "FourierSeries",
    "check_antisymmetry", "check_holomorphic", "check_singular_support",
    "dump_series", "eta_power", "heat_apply", "multiply", "reflect_series",
    "theta_block", "theta_factor", "RecognitionReport", "RootSystemDescriptor",
    "build_P_lattice", "build_star", "cartan_matrix", "catalog", "catalog_labels",
    "recognize", "canonical_pairings", "enumerate_stars", "verify_theorem",
    "EutacticStar", "divisor_multiplicity", "dump_star", "embed", "is_eutactic",
    "load_star", "star_from_pairings", "star_from_vectors", "support_set",
]

__version__ = "0.1.0"
