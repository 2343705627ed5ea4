"""The hallforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports hallforge from src/.  A
run repeats passes over the workload's jobs (see workloads.py) for S seconds,
then checks every output against reference.json.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it records the environment.

--trace 0 reports the end-to-end metrics, times in reference seconds (see
SpeedProbe):
  solve_s      median time of one pass over the workload's jobs
  setup_s      median, over fresh interpreters, of importing hallforge and
               building the workload's quivers and root systems
  peak_rss_mb  peak resident set of this process
  op_p50_ms    median latency of a job (a mul/act operation in cli-ops),
               each job's latency being its median over the passes
  op_p99_ms    99th percentile of the same latencies
--trace 1 first runs untraced passes for 40% of S, then traced passes, and
reports the per-layer metrics of tracer.py; it also writes the spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import speed
from speed import CHUNK_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("algebra", "module", "numeric", "cli-ops")
SETUP_PROBES = 7
UNTRACED_SHARE = 0.4
SAMPLE_INTERVAL_S = 0.01
MIN_SAMPLES = 2
PROBE_CALIBRATION_ROUNDS = 200

# Runs in a fresh interpreter: import hallforge, then make the workload's
# construction calls; prints the reference seconds both took, from their CPU
# time scaled by calibrations of this interpreter just before and after.
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import speed
calls = json.loads(sys.argv[3])
before = speed.calibrate(%d)
t0 = time.process_time()
sys.path.insert(0, sys.argv[2])
import hallforge
for name, *args in calls:
    getattr(hallforge, name)(*args)
t1 = time.process_time()
after = speed.calibrate(%d)
print(repr((t1 - t0) * (before + after) / 2))
""" % (PROBE_CALIBRATION_ROUNDS, PROBE_CALIBRATION_ROUNDS)


class SpeedProbe:
    """Samples the host's speed while timed work runs.

    The host's speed drifts by up to a factor of two within a second when
    other tenants load its cores, and CPU times drift with it, so neither
    wall nor CPU times alone repeat.  While the probe is active, a timer
    interrupts the work every SAMPLE_INTERVAL_S and measures the CPU time of
    one speed chunk.  A span is reported in reference seconds: its CPU time
    minus the sampling inside it, times the mean speed of the samples inside
    it relative to CHUNK_REF_S.  Slower hallforge code reads slower; a
    slower host does not.  CPU time rather than wall time leaves out the
    time the host runs other work on this process's core.
    """

    def __init__(self):
        self.starts = []
        self.costs = []

    def _tick(self, signum, frame):
        start, cpu = perf_counter(), process_time()
        speed.chunk()
        self.starts.append(start)
        self.costs.append(process_time() - cpu)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def reference_seconds(self, start, end, cpu, fallback):
        """(reference seconds, rate) of the wall interval [start, end], in
        which the process used `cpu` CPU seconds: the rate (reference seconds
        per CPU second) comes from the samples inside the interval, or is
        `fallback` when fewer than MIN_SAMPLES fall inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.costs[lo:hi]
        rate = sum(CHUNK_REF_S / c for c in inside) / len(inside) if len(inside) >= MIN_SAMPLES else fallback
        return (cpu - sum(inside)) * rate, rate


def measure_setup(calls):
    env = dict(os.environ)
    env.pop("HALLFORGE_THREADS", None)
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), json.dumps(calls)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_revision():
    """The checked-out commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    """The `model name` of /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return None


def environment(workload, seed, seconds, trace):
    sources = hashlib.sha256()
    for path in sorted((SRC / "hallforge").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": sources.hexdigest(),
        "hallforge_threads": os.environ.get("HALLFORGE_THREADS"),
    }


class Passes:
    """Timed passes over a job list.

    Each job is timed on its own.  Right after it, outside its timing, its
    output is checked and released and the garbage collected, so that every
    job starts from the same heap whatever the order (job order otherwise
    moves the peak RSS by 15 %).  A pass's time is the sum of its jobs'
    times, kept in reference seconds (see SpeedProbe), CPU seconds and wall
    seconds.
    """

    def __init__(self, next_jobs, checker):
        self.next_jobs = next_jobs
        self.checker = checker
        self.pass_times = []
        self.cpu_times = []
        self.wall_times = []
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.verified = set()

    def run(self, seconds, tracer=None):
        """Runs passes until `seconds` of wall time have gone by (at least
        one); returns the reference times of these passes."""
        times = []
        deadline = perf_counter() + seconds
        while True:
            jobs = self.next_jobs()
            gc.collect()
            windows = []
            with SpeedProbe() as probe:
                start, cpu = perf_counter(), process_time()
                for job in jobs:
                    if tracer is not None:
                        tracer.active = True
                    t0, c0 = perf_counter(), process_time()
                    try:
                        out, err = job.run(), None
                    except Exception as exc:  # a failing job is counted, not fatal
                        out, err = None, exc
                    c1, t1 = process_time(), perf_counter()
                    if tracer is not None:
                        tracer.active = False
                    windows.append((t0, t1, c1 - c0))
                    self._check(job, out, err)
                    del out
                    gc.collect()
                end, cpu = perf_counter(), process_time() - cpu
            _, rate = probe.reference_seconds(start, end, cpu, 1.0)
            refs = [probe.reference_seconds(t0, t1, c, rate)[0] for t0, t1, c in windows]
            self.latencies += [(job.name, ref) for job, ref in zip(jobs, refs)]
            self.cpu_times.append(sum(c for _, _, c in windows))
            self.wall_times.append(sum(t1 - t0 for t0, t1, _ in windows))
            times.append(sum(refs))
            if perf_counter() >= deadline:
                break
        self.pass_times += times
        return times

    def _check(self, job, out, err):
        self.attempted += 1
        if err is not None:
            reason = "".join(traceback.format_exception_only(type(err), err)).strip()
        else:
            reason = self.checker.check(job, out)
            if reason is None and job.verify is not None and job.name not in self.verified:
                self.verified.add(job.name)
                reason = job.verify(out)
        if reason is not None:
            self.failures.append((job.name, reason))


def run(workload, seed, seconds, trace, reference=None):
    """One benchmark run; returns (environment, result object)."""
    os.environ.pop("HALLFORGE_THREADS", None)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    env = environment(workload, seed, seconds, trace)
    setup_s = measure_setup(workloads.setup_calls(workload)) if not trace else None
    passes = Passes(workloads.jobs_for(workload, seed), workloads.Checker(reference, workload, seed))
    if not trace:
        passes.run(seconds)
        by_job = {}
        for name, ref in passes.latencies:
            by_job.setdefault(name, []).append(1000.0 * ref)
        lat_ms = sorted(statistics.median(xs) for xs in by_job.values())
        cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
        metrics = {
            "solve_s": (statistics.median(passes.pass_times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p99_ms": (cuts[98], "ms"),
        }
        env["op_samples"] = len(lat_ms)
    else:
        from tracer import Tracer

        untraced = passes.run(seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes.run(seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        layer = tracer.metrics(sum(passes.wall_times[len(untraced):]), len(traced), overhead)
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("trace-%s-%d.json" % (workload, seed)), env)
    env["pass_wall_s"] = passes.wall_times
    env["pass_cpu_s"] = passes.cpu_times
    env["pass_ref_s"] = passes.pass_times
    env["failures"] = passes.failures[:20]
    result = {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return env, result


def unit_of(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hallforge" / "__init__.py").is_file():
        sys.stderr.write("error: no hallforge sources at %s; run from a source checkout\n" % SRC)
        return 2
    env, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, reason in env["failures"]:
        sys.stderr.write("FAIL %s: %s\n" % (name, reason))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
