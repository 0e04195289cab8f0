"""One workload process: load the seeded inputs, then run every job in order.

    python3 bench/worker.py --workload NAME --inputs DIR --out FILE --t0 T
                            [--trace SPANS_FILE] [--setup-only]

``--t0`` is the driver's ``time.perf_counter()`` just before it started this
interpreter; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so set-up time counts interpreter start, imports and input loading.

Results go to ``--out`` as JSON lines, flushed as they happen, so a driver that
kills this process at its deadline still sees every job that finished: one
``setup`` line, one ``job`` line per job, then one ``done`` line.

Every job line carries the median time of the speed probe (``SpeedProbe``)
around the job, so the driver can tell how fast the machine was meanwhile.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
# A job is timed against at least this many probes: those taken while it ran,
# and as many of the latest before it as a short job needs.
MIN_JOB_PROBES = 10


class SpeedProbe:
    """Samples the speed of the core this process runs on, from inside it.

    Every PROBE_INTERVAL_S of process CPU time a SIGPROF handler times one run
    of a fixed integer loop that allocates nothing the garbage collector
    tracks.  On a shared host the same code runs up to twice as slow while
    neighbours load the core, in stretches of tens of seconds, so a job's time
    divided by the probe time over the same stretch is far steadier than
    either.  The probe costs about 1% of the CPU time.
    """

    PROBE_INTERVAL_S = 0.01

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def loop() -> int:
        x = 0
        for i in range(600):
            x = (x * 31 + i) % 1000003
        return x

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.PROBE_INTERVAL_S, self.PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def since(self, start: int, at_least: int = 1) -> float | None:
        """Median probe time from sample ``start`` on, reaching back before
        ``start`` where needed to cover at least ``at_least`` samples."""
        window = self.samples[max(min(start, len(self.samples) - at_least), 0):]
        return statistics.median(window) if window else None


def load_input(path: str):
    """A lattice or star input file, parsed and validated by the package."""
    from eustar import lattice, star
    return lattice.load_lattice(path) if path.endswith(".lattice.json") else star.load_star(path)


def run_job(job, path: str, loaded) -> tuple[int, str, str | None]:
    """(exit code, stdout, traceback or None) of one job."""
    from eustar import cli, search
    out = io.StringIO()
    try:
        if job.argv is None:
            stars = search.enumerate_stars(loaded)
            out.write(json.dumps([[list(u) for u in s.pairings] for s in stars]))
            return 0, out.getvalue(), None
        argv = [path if a == "{input}" else a for a in job.argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue(), None
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2, out.getvalue(), None
    except Exception:
        return -1, out.getvalue(), traceback.format_exc()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    probe = SpeedProbe()
    probe.start()

    sys.path.insert(0, SRC_DIR)  # the package under test, from this checkout
    from jobs import WORKLOADS

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]
    loaded = {}
    for job in workload.jobs:
        if job.input not in loaded:
            loaded[job.input] = load_input(os.path.join(args.inputs, job.input))

    with open(args.out, "w") as out:
        def emit(record):
            out.write(json.dumps(record) + "\n")
            out.flush()

        emit({"setup_s": time.perf_counter() - args.t0, "probe_s": probe.since(0)})
        if args.setup_only:
            return 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for job in workload.jobs:
            t, c, k = time.perf_counter(), time.process_time(), len(probe.samples)
            code, stdout, error = run_job(job, os.path.join(args.inputs, job.input),
                                          loaded[job.input])
            s, cpu = time.perf_counter() - t, time.process_time() - c
            emit({"job": job.name, "s": s, "cpu_s": cpu,
                  "probe_s": probe.since(k, at_least=MIN_JOB_PROBES),
                  "exit": code, "stdout": stdout, "error": error})
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        probe.stop()
        done = {"wall_s": wall, "cpu_s": cpu, "probe_s": probe.since(0),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            done["layers"] = tracer.metrics()
            done["spans"] = len(tracer.starts)
            tracer.write(args.trace)
        emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
