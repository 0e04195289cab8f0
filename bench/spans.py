"""Span recorders around each layer's public functions, installed from outside.

Modules bind names with ``from .linalg import solve`` and the like, so a
wrapper is written into every ``eustar`` module namespace that holds the
original object, not only into the defining module.  Nothing under ``src/`` is
changed.  A function that a later change removes is skipped, and its metrics
read 0.

Each call records one span: name, start, end and the enclosing span.  Spans
stay in memory until ``write``.  A span's self time is its duration minus the
durations of its direct children; none of the wrapped functions calls itself,
so a name's total time is the sum of its spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter


def _cells(counts, args, result):
    counts["certify.cells_examined"] += result.cells_examined


def _multiply(counts, args, result):
    counts["qseries.multiply.pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["qseries.multiply.terms_out"] += len(result.terms)


def _block_terms(counts, args, result):
    counts["qseries.theta_block.terms"] += len(result.terms)


def _stars(counts, args, result):
    counts["search.enumerate_stars.stars"] += len(result)


# (module, attribute, span name, counter hook).  An attribute "Class.method"
# wraps a method on the class itself, which every importer shares.
TARGETS = [
    ("eustar.cli", "main", "cli.main", None),
    ("eustar.certify", "certify_extremal", "certify.certify_extremal", _cells),
    ("eustar.certify", "min_deficiency", "certify.min_deficiency", None),
    ("eustar.certify", "deficiency", "certify.deficiency", None),
] + [
    ("eustar.linalg", name, f"linalg.{name}", None)
    for name in ("solve", "invert", "rref", "nullspace", "rank", "det", "dot")
] + [
    ("eustar.qseries", "multiply", "qseries.multiply", _multiply),
    ("eustar.qseries", "theta_block", "qseries.theta_block", _block_terms),
] + [
    ("eustar.qseries", name, f"qseries.{name}", None)
    for name in ("eta_power", "theta_factor", "heat_apply", "check_singular_support",
                 "dump_series")
] + [
    ("eustar.search", "enumerate_stars", "search.enumerate_stars", _stars),
    ("eustar.search", "verify_theorem", "search.verify_theorem", None),
] + [
    ("eustar.star", name, f"star.{name}", None)
    for name in ("star_from_pairings", "is_eutactic", "support_set", "load_star")
] + [
    ("eustar.rootsys", name, f"rootsys.{name}", None)
    for name in ("recognize", "catalog", "build_star")
] + [
    ("eustar.lattice", "Lattice.__init__", "lattice.Lattice", None),
    ("eustar.lattice", "load_lattice", "lattice.load_lattice", None),
]

# Per-layer metrics in report order: (name, unit).  Each is a span statistic
# (".calls", ".s", ".self_s") or an exact counter recorded at a span boundary.
METRICS = (
    [("certify.min_deficiency.calls", "count"), ("certify.min_deficiency.s", "s"),
     ("certify.cells_examined", "count"),
     ("certify.deficiency.calls", "count"), ("certify.deficiency.s", "s")]
    + [(f"linalg.{n}.{k}", u) for n in ("solve", "invert", "rref", "nullspace", "rank",
                                         "det", "dot")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("qseries.multiply.calls", "count"), ("qseries.multiply.s", "s"),
       ("qseries.multiply.pairs", "count"), ("qseries.multiply.terms_out", "count"),
       ("qseries.multiply.yield", "ratio")]
    + [(f"qseries.{n}.s", "s") for n in ("theta_block", "eta_power", "theta_factor",
                                         "heat_apply", "check_singular_support",
                                         "dump_series")]
    + [("qseries.theta_block.terms", "count"),
       ("search.enumerate_stars.calls", "count"), ("search.enumerate_stars.self_s", "s"),
       ("search.enumerate_stars.stars", "count"), ("search.verify_theorem.self_s", "s")]
    + [(f"star.{n}.{k}", u) for n in ("star_from_pairings", "is_eutactic", "support_set",
                                       "load_star")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("rootsys.recognize.calls", "count"), ("rootsys.recognize.s", "s"),
       ("rootsys.catalog.hits", "count"), ("rootsys.catalog.misses", "count"),
       ("rootsys.catalog.s", "s"), ("rootsys.build_star.s", "s"),
       ("lattice.Lattice.calls", "count"), ("lattice.Lattice.s", "s"),
       ("lattice.load_lattice.s", "s"), ("cli.main.self_s", "s")]
)

# Exact work counters: they must repeat across runs and across seeds.
EXACT_COUNTERS = ("certify.cells_examined", "qseries.multiply.pairs",
                  "search.enumerate_stars.stars", "rootsys.catalog.misses")


class Tracer:
    """Spans of one process, kept in flat arrays, and counters taken at them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.caches: dict = {}

    def wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        stack, counts = self.stack, self.counts
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.name_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every eustar namespace that binds it."""
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                if cls is not None and method in vars(cls):
                    setattr(cls, method, self.wrap(name, vars(cls)[method], hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self.caches[name] = original
            wrapped = self.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "eustar" or mod_name.startswith("eustar."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counters recorded so far."""
        n = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += duration[i]
        calls, total, self_time = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] += 1
            total[name] += duration[i]
            self_time[name] += duration[i] - child_time[i]
        values = dict(self.counts)
        for name, fn in self.caches.items():
            info = fn.cache_info()
            values[f"{name}.hits"] = info.hits
            values[f"{name}.misses"] = info.misses
        pairs = values.get("qseries.multiply.pairs", 0)
        values["qseries.multiply.yield"] = (values.get("qseries.multiply.terms_out", 0)
                                            / pairs if pairs else 0.0)
        stats = {"calls": calls, "s": total, "self_s": self_time}
        for metric, _ in METRICS:
            if metric not in values:
                name, _, kind = metric.rpartition(".")
                values[metric] = stats[kind][name] if kind in stats else 0
        return {metric: values[metric] for metric, _ in METRICS}

    def write(self, path: str) -> None:
        """All spans, one per line: name, start, end, parent index (-1 for none)."""
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")
