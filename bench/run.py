"""The eustar benchmark: exact verdicts, end to end and per layer.

    python3 bench/run.py --workload {extremal,expand,search,recognize}
                         --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: its jobs (see jobs.py) run one
after another through the public API, ``eustar.cli.main(argv)`` with stdout
captured, or ``enumerate_stars`` where no command exists.  One pass runs every
job once in a fresh interpreter (worker.py), so per-process caches such as
``rootsys.catalog`` start cold, as they do for a command-line user.  Inputs are
star and lattice files made from the seed before the pass starts (oracle.py).

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least one), plus a few set-up-only interpreters, and reports medians:

  setup_s      interpreter start until eustar is imported and inputs are loaded
  wall_s       from the end of set-up until the last verdict is in
  cpu_s        process CPU time over the same span
  job_s.max    time of the slowest job in a pass (the frontier job)
  peak_rss_mb  peak resident memory of the workload process

and prints, outside the result, job_s.p50 (the median job of a pass) and the
raw figures.  Each worker is pinned to the CPU that is quietest as it starts.

Times are given at reference speed.  On a shared host the same Python code
runs up to twice as slow while neighbours load the core, in stretches of tens
of seconds, so raw seconds spread by 10% to 40% between runs.  The worker times
a fixed probe loop every 10 ms of CPU time; each time is multiplied by
REFERENCE_PROBE_S over the median probe time around it.  The raw figures and
the probe time are printed too (``raw.*``, ``probe_us``).

``--trace 1`` runs one untraced pass, one traced pass at the seed and one
traced pass at a second seed, and reports the per-layer metrics of spans.py
from the first traced pass (raw seconds), with ``trace.overhead_s``, traced
minus untraced ``wall_s``.  The exact work counters must agree between the two
traced passes.

Every output is checked (oracle.py).  A job with a wrong exit code or output
fails, and so does every job of a pass killed at the run's deadline;
failed_ratio = failed / attempted is printed, and the result carries both
numbers.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
from jobs import WORKLOADS
from spans import EXACT_COUNTERS, METRICS
from worker import SpeedProbe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

RUN_DEADLINE_S = 170.0  # a run must end within 180 s; a worker past this is killed
EXTRA_SETUPS = 5        # set-up-only workers per untraced run

# Times are reported at the speed at which one SpeedProbe loop (worker.py)
# takes REFERENCE_PROBE_S; it takes 50 us to 90 us on the Intel Xeon 2-vCPU
# guest with Python 3.11 on which the benchmark was defined.
REFERENCE_PROBE_S = 50e-6
CPU_CHOICE_PROBES = 300  # probe loops timed on each CPU before a worker starts

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("job_s.max", "s"),
              ("peak_rss_mb", "MB"))
# Printed but not in the result.  job_s.p50 is a job of a few milliseconds on
# search, where host jitter alone spreads single jobs by 30% to 40%, so it
# cannot hold a bound; the raw figures show what the scaling did.
SHOWN_ONLY = (("job_s.p50", "s"), ("raw.setup_s", "s"), ("raw.wall_s", "s"),
              ("raw.cpu_s", "s"), ("probe_us", "us"))
LAYER_METRICS = tuple(METRICS) + (("trace.overhead_s", "s"), ("trace.spans", "count"))


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def quietest_cpu():
    """The allowed CPU on which the probe loop runs fastest right now.

    Neighbours load each core in stretches of tens of seconds, independently,
    so a worker pinned to the core that is quiet now mostly stays out of them.
    """
    allowed = os.sched_getaffinity(0)
    timings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            t = time.perf_counter()
            for _ in range(CPU_CHOICE_PROBES):
                SpeedProbe.loop()
            timings.append((time.perf_counter() - t, cpu))
    finally:
        os.sched_setaffinity(0, allowed)
    return min(timings)[1]


def start_worker(workload, inputs_dir, out_path, trace_path=None, setup_only=False):
    argv = [sys.executable, WORKER, "--workload", workload.name, "--inputs", inputs_dir,
            "--out", out_path]
    if trace_path:
        argv += ["--trace", trace_path]
    if setup_only:
        argv.append("--setup-only")
    cpu = quietest_cpu()
    err = open(out_path + ".stderr", "w")
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(argv + ["--t0", repr(t0)], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=BENCH_DIR)
    finally:
        err.close()
    try:
        os.sched_setaffinity(proc.pid, {cpu})
    except ProcessLookupError:  # already exited; its records tell the rest
        pass
    return proc


def read_records(out_path):
    records = []
    if os.path.exists(out_path):
        with open(out_path) as fh:
            for line in fh:
                if line.endswith("\n"):
                    records.append(json.loads(line))
    return records


def run_pass(workload, inputs_dir, out_path, deadline, trace_path=None, setup_only=False):
    """One worker; returns (set-up record, {job: record}, done record or None).

    A worker still running at the run's deadline is killed; the jobs it had not
    finished have no record.
    """
    proc = start_worker(workload, inputs_dir, out_path, trace_path, setup_only)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        print(f"deadline: killed a {workload.name} worker", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    records = read_records(out_path)
    if not records or "setup_s" not in records[0]:
        with open(out_path + ".stderr") as fh:
            raise HarnessError(f"worker failed before set-up ended:\n{fh.read()}")
    jobs = {r["job"]: r for r in records if "job" in r}
    done = records[-1] if "wall_s" in records[-1] else None
    return records[0], jobs, done


class Seeded:
    """A workload's inputs for one seed, written to disk, with their transforms."""

    def __init__(self, workload, seed, workdir):
        base = {}
        for job in workload.jobs:
            with open(os.path.join(BENCH_DIR, "inputs", job.input)) as fh:
                base[job.input] = json.load(fh)
        self.seed = seed
        self.files, self.transforms = oracle.seed_inputs(base, seed, workload.shuffle)
        self.dir = os.path.join(workdir, f"seed{seed}")
        os.makedirs(self.dir)
        for name, data in self.files.items():
            with open(os.path.join(self.dir, name), "w") as fh:
                json.dump(data, fh)


def check_pass(workload, seeded, jobs):
    """Number of failed jobs in a pass; reasons go to stderr."""
    failed = 0
    for job in workload.jobs:
        rec = jobs.get(job.name)
        if rec is None:
            reason = "did not finish"
        elif rec["error"]:
            reason = "raised\n" + rec["error"]
        else:
            with open(os.path.join(BENCH_DIR, "expected", workload.name,
                                   f"{job.name}.out")) as fh:
                want = fh.read()
            reason = oracle.check(job, rec["exit"], rec["stdout"], want, seeded.seed,
                                  seeded.files[job.input], seeded.transforms[job.input])
        if reason:
            failed += 1
            print(f"FAILED {workload.name}/{job.name} seed {seeded.seed}: {reason}",
                  file=sys.stderr)
    return failed


def at_reference(seconds, probe_s):
    """A time taken while the probe loop took probe_s, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s if probe_s else seconds


def setup_metrics(setup):
    return {"setup_s": at_reference(setup["setup_s"], setup["probe_s"]),
            "raw.setup_s": setup["setup_s"]}


def pass_metrics(jobs, done):
    """End-to-end metrics of one finished pass, with times at reference speed.

    Each job's wall and CPU time is scaled by the probe time around it, so a
    pass that meets a loaded stretch of the host is corrected job by job.
    The raw figures are kept alongside.
    """
    scaled_s = [at_reference(r["s"], r["probe_s"]) for r in jobs.values()]
    scaled_cpu = [at_reference(r["cpu_s"], r["probe_s"]) for r in jobs.values()]
    return {"wall_s": sum(scaled_s), "cpu_s": sum(scaled_cpu),
            "job_s.p50": statistics.median(scaled_s), "job_s.max": max(scaled_s),
            "peak_rss_mb": done["peak_rss_mb"], "raw.wall_s": done["wall_s"],
            "raw.cpu_s": done["cpu_s"], "probe_us": done["probe_s"] * 1e6}


def untraced_run(workload, seeded, workdir, seconds, deadline):
    start = time.monotonic()
    setups, passes, durations = [], [], []
    attempted = failed = 0
    while True:
        t = time.monotonic()
        setup, jobs, done = run_pass(workload, seeded.dir,
                                     os.path.join(workdir, f"pass{len(durations)}.jsonl"),
                                     deadline)
        durations.append(time.monotonic() - t)
        attempted += len(workload.jobs)
        failed += check_pass(workload, seeded, jobs)
        setups.append(setup)
        if done is None:
            break
        passes.append(pass_metrics(jobs, done))
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    for i in range(EXTRA_SETUPS if done is not None else 0):
        setups.append(run_pass(workload, seeded.dir, os.path.join(workdir, f"setup{i}.jsonl"),
                               deadline, setup_only=True)[0])
    setups = [setup_metrics(setup) for setup in setups]
    values = {name: statistics.median(s[name] for s in setups) for name in setups[0]}
    for name in passes[0] if passes else ():
        values[name] = statistics.median(p[name] for p in passes)
    print(f"{len(durations)} passes of {len(workload.jobs)} jobs, {len(setups)} set-ups",
          file=sys.stderr)
    return attempted, failed, values, bool(passes)


def traced_run(workload, seeded, workdir, deadline):
    alt = Seeded(workload, 0 if seeded.seed else 1, workdir)
    attempted = failed = 0
    results = []
    for label, inputs, traced in (("untraced", seeded, False), ("traced", seeded, True),
                                  ("traced-alt", alt, True)):
        out = os.path.join(workdir, f"{label}.jsonl")
        trace_path = os.path.join(workdir, f"{label}.spans.tsv") if traced else None
        _, jobs, done = run_pass(workload, inputs.dir, out, deadline, trace_path)
        attempted += len(workload.jobs)
        failed += check_pass(workload, inputs, jobs)
        if done is None:
            return attempted, failed, {}, False
        results.append((jobs, done))
    (untraced, _), (jobs, traced), (_, traced_alt) = results
    counters_repeat = True
    for name in EXACT_COUNTERS:
        if traced["layers"][name] != traced_alt["layers"][name]:
            counters_repeat = False
            print(f"FAILED exact counter {name}: {traced['layers'][name]} at seed "
                  f"{seeded.seed}, {traced_alt['layers'][name]} at seed {alt.seed}",
                  file=sys.stderr)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = (pass_metrics(jobs, traced)["wall_s"]
                                  - pass_metrics(*results[0])["wall_s"])
    values["trace.spans"] = traced["spans"]
    for name in workload.exercises:
        if not values[name]:
            print(f"note: {name} is 0 on {workload.name}", file=sys.stderr)
    return attempted, failed, values, counters_repeat


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Unwind on SIGTERM too, so that a running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "eustar", "__init__.py")):
        print(f"error: no eustar package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, "_work", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    seeded = Seeded(workload, args.seed, workdir)
    try:
        if args.trace:
            attempted, failed, values, ok = traced_run(workload, seeded, workdir, deadline)
            reported, shown = LAYER_METRICS, LAYER_METRICS
        else:
            attempted, failed, values, ok = untraced_run(workload, seeded, workdir,
                                                         args.seconds, deadline)
            reported, shown = END_TO_END, END_TO_END + SHOWN_ONLY
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, unit in shown:
        print(f"{workload.name} {name} {values.get(name, 0)} {unit}")
    print(f"{workload.name} failed_ratio {failed / attempted} ({failed} of {attempted} jobs)")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in reported}
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
