#!/usr/bin/env python3
"""Benchmark for parabolic-lab.

    python3 perfbench/run.py --workload ff-profile --seed 1 --seconds 30 --trace 0

Runs one workload (ff-profile, laurent-periodic or cli-verify) as a closed
loop with a single client: one job at a time, in one process, against the
library under src/ of the checkout it sits in.  Inputs come from --seed and
are generated before timing starts.  Every job's answer is checked.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over a fixed job list and reports the
per-layer metrics (see perfbench/tracing.py).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A JSON record with the run metadata (and,
for traced runs, the spans of the last traced pass) is written under
.perfbench_out/ in the checkout.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
# median reference_loop time on a shared 2-core Xeon VM at its usual speed
REF_NOMINAL_S = 0.005
REF_SHARE = 0.05
# A run stops after the current job once this much wall time has passed,
# whatever --seconds says, so it always exits well inside three minutes.
HARD_STOP_S = 150.0

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def _import_library():
    if not (ROOT / "src" / "parabolic_lab" / "__init__.py").is_file():
        raise ImportError(f"no library sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import parabolic_lab
    if Path(parabolic_lab.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"parabolic_lab resolved to {parabolic_lab.__file__}")
    return numpy.__version__


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
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


def _expected_digest(workload, seed):
    with open(HERE / "expected.json") as fh:
        pinned = json.load(fh)
    if seed != pinned["seed"]:
        return None
    return pinned["digests"].get(workload)


class Tally:
    """Jobs attempted and failed, and the outcomes of the first pass."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.first_pass = []
        self.consistent = True

    def record(self, job, result, error, in_first_pass):
        self.attempted += 1
        if error is None:
            try:
                outcome = self.wl.check(job, result)
            except Exception as e:  # a crashing check fails the job
                error = e
        if error is not None:
            from workloads import Outcome
            outcome = Outcome(False, repr(error).encode(),
                              note=f"{type(error).__name__}: {error}")
        if not outcome.ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(outcome.note)
        if in_first_pass:
            self.first_pass.append(outcome)
        return outcome


def _run_job(wl, job):
    t0 = time.perf_counter()
    try:
        result, error = wl.run(job), None
    except Exception as e:  # any untyped exception is a failed job
        result, error = None, e
    return time.perf_counter() - t0, result, error


def _past_hard_stop():
    return time.perf_counter() - T0 > HARD_STOP_S


def reference_loop():
    """Fixed pure-Python work that never touches the library."""
    d = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i
    return [x * 3 for x in range(20000)]


class MachineSpeed:
    """Times reference_loop before the first job and after every job.

    Shared 2-core virtual machines change speed by up to 40% within
    seconds and from one minute to the next (other tenants share the cores),
    far more than the changes the benchmark has to resolve.  Job latencies
    are therefore reported at a nominal machine speed: each is scaled by
    REF_NOMINAL_S over the mean of the reference times right before and
    right after it.
    The reference does not call the library, so a faster library still reads
    faster.  The raw values stay in the run record.
    """

    def __init__(self):
        self.samples = []

    def sample(self, after_s=0.0):
        """Time the loop; after a job of after_s seconds, repeat it for about
        REF_SHARE of that time and keep the mean."""
        loops = max(1, round(REF_SHARE * after_s / REF_NOMINAL_S))
        t0 = time.perf_counter()
        for _ in range(loops):
            reference_loop()
        self.samples.append((time.perf_counter() - t0) / loops)

    def factor(self):
        """Nominal over measured for the whole run: below 1 when slow."""
        return REF_NOMINAL_S / statistics.median(self.samples)

    def scale(self, latencies):
        """Latencies at nominal speed; samples[i] and samples[i + 1] are
        the reference times right before and right after job i."""
        return [lat * 2 * REF_NOMINAL_S
                / (self.samples[i] + self.samples[i + 1])
                for i, lat in enumerate(latencies)]


# Run in a fresh interpreter: how long importing the library takes, and the
# reference loop's time right after it in the same process.  numpy is loaded
# first and not timed: its import is fixed by the environment, and on a
# shared 2-core VM it moved by a quarter between sets of runs (OpenBLAS
# start-up and the page cache), which would swamp the library's own share.
IMPORT_PROBE = """
import statistics, sys, time
import numpy
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import parabolic_lab, parabolic_lab.cli
t1 = time.perf_counter()
from run import MachineSpeed
speed = MachineSpeed()
for _ in range(5):
    speed.sample()
print(t1 - t0, statistics.median(speed.samples))
"""


def measure_setup(wl, seed):
    """setup_s at nominal speed and raw, and the input pool.

    Set-up is importing the library, timed in SETUP_REPS fresh interpreters,
    plus building the inputs and warming up, repeated SETUP_REPS times in
    this one; each part is the median of its repetitions.
    """
    imports, imports_nominal = [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
             str(HERE)], capture_output=True, text=True, check=True,
            timeout=60).stdout.split()
        dt, ref = float(out[0]), float(out[1])
        imports.append(dt)
        imports_nominal.append(dt * REF_NOMINAL_S / ref)
    speed = MachineSpeed()
    speed.sample()
    reps, reps_nominal = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = wl.build(seed)
        wl.warmup(pool)
        dt = time.perf_counter() - t0
        speed.sample()
        reps.append(dt)
        reps_nominal.append(
            dt * REF_NOMINAL_S / statistics.median(speed.samples[-2:]))
    median = statistics.median
    return (pool, median(imports_nominal) + median(reps_nominal),
            median(imports) + median(reps))


def timed_run(wl, pool, seconds, tally, speed):
    """Whole rounds, cycling through the pool, until --seconds of job time
    and at least one full pass; returns each job's latency and class."""
    latencies, classes = [], []
    busy = 0.0
    r = 0
    while busy < seconds or r < wl.pass_rounds:
        for job in pool[r % len(pool)]:
            dt, result, error = _run_job(wl, job)
            busy += dt
            latencies.append(dt)
            classes.append(wl.input_class(job))
            tally.record(job, result, error, r < wl.pass_rounds)
            speed.sample(dt)
            if _past_hard_stop():
                return latencies, classes
        r += 1
    return latencies, classes


def traced_run(wl, pool, seconds, tally):
    """Alternate an untraced and a traced pass over the first pass_rounds
    rounds until --seconds have passed; returns per-layer metrics."""
    import tracing as tr
    from workloads import digest

    jobs = [job for rnd in pool[:wl.pass_rounds] for job in rnd]
    plain, traced, layers = [], [], []
    traced_outcomes = []
    tracer = None
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        busy = 0.0
        for job in jobs:
            dt, result, error = _run_job(wl, job)
            busy += dt
            tally.record(job, result, error, not plain)
        plain.append(busy)
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        busy = 0.0
        try:
            for i, job in enumerate(jobs):
                with tracer.job_span(i):
                    dt, result, error = _run_job(wl, job)
                busy += dt
                outcome = tally.record(job, result, error, False)
                if len(traced) == 0:
                    traced_outcomes.append(outcome)
        finally:
            tr.restore(undo)
        traced.append(busy)
        layers.append(tr.layer_metrics(tracer))
        if _past_hard_stop():
            break

    if digest(traced_outcomes) != digest(tally.first_pass):
        tally.consistent = False
        tally.notes.append("traced answers differ from untraced answers")
    out = dict(layers[0])
    for name in out:
        if name.endswith("self_s"):
            out[name] = statistics.median(run[name] for run in layers)
    out["ramification.levels_decided_frac"] = _frac(
        [o.levels for o in tally.first_pass])
    out["valuation_geometry.verdicts_decided_frac"] = _frac(
        [o.verdicts for o in tally.first_pass])
    out["trace.overhead_frac"] = (
        1.0 - statistics.median(plain) / statistics.median(traced))
    out = {name: out[name] for name, _ in tr.PER_LAYER}
    info = {"plain_pass_s": plain, "traced_pass_s": traced,
            "pass_jobs": len(jobs)}
    return out, info, tracer


def _frac(pairs):
    decided = sum(d for d, _ in pairs)
    total = sum(t for _, t in pairs)
    return decided / total if total else 0.0


def end_to_end(latencies, classes, wl, setup_s):
    """End-to-end metrics from job latencies and each job's input class."""
    n = len(latencies)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[
        wl.tail_pct - 1] if n > 1 else latencies[0]
    # Input classes differ in cost by up to 60x and every run holds them in
    # equal numbers, so the pooled median sits in the gap between two
    # classes, where single slow jobs move it.  The median of the per-class
    # medians estimates the same point and is robust to them.
    by_class = {}
    for c, lat in zip(classes, latencies):
        by_class.setdefault(c, []).append(lat)
    metrics = {
        "jobs_per_s": n / sum(latencies),
        "job_p50_ms": statistics.median(
            statistics.median(v) for v in by_class.values()) * 1000.0,
        "job_tail_ms": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    }
    info = {"samples": n, "classes": len(by_class),
            "tail_percentile": wl.tail_pct,
            "samples_beyond_tail": sum(x > tail for x in latencies)}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        numpy_version = _import_library()
    except ImportError as e:
        print(f"perfbench: cannot load parabolic_lab: {e}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(ROOT), str(OUT_DIR))
    pool, setup_s, setup_raw_s = measure_setup(wl, args.seed)
    # the input pool is benchmark state, not the library's: keep the
    # collector from walking it on every full collection while timing
    gc.collect()
    gc.freeze()

    tally = Tally(wl)
    tracer = None
    series = {}
    if args.trace:
        metrics, info, tracer = traced_run(wl, pool, args.seconds, tally)
        units = dict(tracing.PER_LAYER)
    else:
        speed = MachineSpeed()
        speed.sample()
        latencies, classes = timed_run(wl, pool, args.seconds, tally, speed)
        raw, info = end_to_end(latencies, classes, wl, setup_raw_s)
        metrics, _ = end_to_end(speed.scale(latencies), classes, wl, setup_s)
        info.update(speed_factor=speed.factor(), raw_metrics=raw)
        series = {"latencies_s": latencies, "reference_s": speed.samples}
        units = dict(END_TO_END)

    expected_pass = wl.pass_rounds * len(pool[0])
    correct = tally.failed == 0 and tally.consistent
    pass_digest = None
    if len(tally.first_pass) < expected_pass:
        correct = False
        tally.notes.append("the first pass did not complete before the "
                           "hard stop; its answers are unchecked")
    else:
        pass_digest = workloads.digest(tally.first_pass)
        pinned = _expected_digest(args.workload, args.seed)
        if pinned is not None and pinned != pass_digest:
            correct = False
            tally.notes.append(f"output digest {pass_digest} differs from "
                               f"the pinned {pinned}")

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": _git_commit(), "jobs": tally.attempted,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "first_pass_jobs": len(tally.first_pass),
        "first_pass_digest": pass_digest, "import_s": import_s, **info,
    }
    record = {"meta": meta, "metrics": metrics, "notes": tally.notes,
              **series}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")

    for note in tally.notes:
        print(f"perfbench: {note}")
    print(f"perfbench: meta {json.dumps(meta)}")
    for key, value in metrics.items():
        print(f"perfbench: {args.workload} {key} = {value:.6g} {units[key]}")
    if not args.trace:
        print(f"perfbench: {args.workload} failed_frac = "
              f"{meta['failed_frac']:.6g} frac; job_tail_ms is p"
              f"{wl.tail_pct} of {info['samples']} samples, "
              f"{info['samples_beyond_tail']} beyond it")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
