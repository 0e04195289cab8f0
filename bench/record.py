"""Regenerate the base inputs and the recorded seed-0 outputs from src/.

    python3 bench/record.py

Writes ``bench/inputs/*.json`` (seed-0 star and lattice files) and
``bench/expected/<workload>/<job>.out`` (each job's stdout at seed 0).  The
benchmark compares seed-0 output against these byte for byte, so run this only
on a commit whose outputs are known to be right, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys

from jobs import WORKLOADS
from worker import BENCH_DIR, SRC_DIR, load_input, run_job

CATALOG_STARS = ("G2", "A3", "B3", "A4", "A8", "B8", "C8", "D8", "E6", "E7", "E8")
WEIGHT_LATTICES = ("A3", "G2", "B3", "C3", "A4")
# The search regression corpus of the test suite.
CORPUS_GRAMS = ([[1]], [[2]], [[3]], [[1, 0], [0, 1]], [[2, 1], [1, 2]],
                [[2, 0], [0, 2]], [[4, 1], [1, 4]])
# Pairing vectors of a non-extremal star on the G2 weight lattice (min 1/6,
# threshold 1/3), and of a eutactic star on [[4, 1], [1, 4]] whose support is
# not closed under reflections.
G2_WEIGHT_NONEXTREMAL = ((3, 1), (2, 1), (2, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1),
                         (1, 0), (1, 0))
NOT_A_ROOT_SYSTEM = ((1, 1), (1, 1), (1, 0), (1, -1), (0, 1))


def base_inputs() -> dict:
    from eustar.lattice import Lattice
    from eustar.rootsys import build_P_lattice, build_star, catalog
    from eustar.star import star_from_pairings

    files = {f"{label}.star.json": build_star(catalog(label)).to_json_dict()
             for label in CATALOG_STARS}
    files["two_vector.star.json"] = {"gram": [[2]], "vectors": [["1/2"], ["1/2"]]}
    files["G2_weight_nonextremal.star.json"] = star_from_pairings(
        build_P_lattice(catalog("G2")), G2_WEIGHT_NONEXTREMAL).to_json_dict()
    files["not_a_root_system.star.json"] = star_from_pairings(
        Lattice([[4, 1], [1, 4]]), NOT_A_ROOT_SYSTEM).to_json_dict()
    for i, gram in enumerate(CORPUS_GRAMS):
        files[f"corpus{i}.lattice.json"] = {"gram": gram}
    for label in WEIGHT_LATTICES:
        files[f"{label}_weight.lattice.json"] = build_P_lattice(catalog(label)).to_json_dict()
    return files


def main() -> int:
    sys.path.insert(0, SRC_DIR)
    inputs = os.path.join(BENCH_DIR, "inputs")
    os.makedirs(inputs, exist_ok=True)
    for name, data in sorted(base_inputs().items()):
        with open(os.path.join(inputs, name), "w") as fh:
            fh.write(json.dumps(data, sort_keys=True) + "\n")

    for workload in WORKLOADS.values():
        outdir = os.path.join(BENCH_DIR, "expected", workload.name)
        os.makedirs(outdir, exist_ok=True)
        for job in workload.jobs:
            path = os.path.join(inputs, job.input)
            code, stdout, error = run_job(job, path, load_input(path))
            if error or code != job.exit_code:
                raise SystemExit(f"{workload.name}/{job.name}: exit {code}, "
                                 f"expected {job.exit_code}\n{error or ''}")
            with open(os.path.join(outdir, f"{job.name}.out"), "w") as fh:
                fh.write(stdout)
            print(f"{workload.name}/{job.name}: exit {code}, {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
