#!/usr/bin/env python3
"""Benchmark of the pisupport package, run from the root of a checkout:

    python3 pibench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process and one thread run the workload's job list in a closed loop:
each job starts when the previous one has finished, and passes over the
list repeat until the next pass would end after ``--seconds``.  Outputs are
checked after the timed passes.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` part of
the time runs untraced and the rest under the tracer, and the JSON holds
the per-layer metrics.  A run record (and, when tracing, the spans) goes to
``.bench_out/`` at the root of the checkout.  See pibench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing  # benchmark module next to this script; imports no package code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
# Seconds that `calibrate` takes on the reference host (2-core Intel Xeon
# shared with other tenants, Python 3.11) outside bursts of their load.
CAL_REF_S = 0.0045
CAL_SAMPLES = 3  # loop times taken at each set-up boundary
# thread pools of the numeric libraries, pinned before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "scan", "cosupport", "ideal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, for the smoke test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Host speed
#
# On a shared host other tenants can halve this process's speed, in
# bursts of seconds and in phases of minutes, and process CPU time grows
# with wall time, so neither shows the slowdown apart from the work.  Every
# timing is therefore also divided by the host speed measured next to it:
# a fixed pure-Python loop, which uses no package code, is timed before and
# after each job, and times are reported in reference seconds, that is
# measured seconds * CAL_REF_S / (median time of the loop around them).
# The record file keeps the measured seconds as well.


def calibrate():
    """Seconds for a fixed pure-Python loop over a small dictionary."""
    start = time.perf_counter()
    acc = {}
    for i in range(20_000):
        key = (i % 31, i % 7)
        acc[key] = (acc.get(key, 0) + i * i) % 7
    return time.perf_counter() - start


def speed_factor(probes):
    """Reference seconds per measured second, from loop times around a span."""
    return CAL_REF_S / statistics.median(probes)


# ---------------------------------------------------------------------------
# Set-up


def import_package():
    """Import the package from the checkout's src/ and return the seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pisupport  # noqa: F401
    import pisupport.cli  # noqa: F401  (pulls in every module of the package)
    return time.perf_counter() - start


def clear_caches():
    """Empty every memoized function of the package, so that each set-up
    repetition pays for filling them."""
    for mod in tracing.package_modules():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def set_up(workloads, name, seed, smoke, probes):
    """Build the inputs and warm up SETUP_REPS times; keep the last inputs."""
    times = []
    for _ in range(SETUP_REPS):
        clear_caches()
        gc.collect()
        probes += [calibrate() for _ in range(CAL_SAMPLES)]
        start = time.perf_counter()
        inputs = workloads.WORKLOADS[name](seed, smoke)
        workloads.warm_caches(inputs)
        times.append(time.perf_counter() - start)
    probes += [calibrate() for _ in range(CAL_SAMPLES)]
    return inputs, times


# ---------------------------------------------------------------------------
# Closed loop


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latency = []  # measured seconds per job, in job order
        self.outcome = []  # (output, error text or None) per job
        self.factor = []  # reference seconds per measured second, per job

    def corrected(self):
        return [x * f for x, f in zip(self.latency, self.factor)]


def run_pass(jobs, tracer=None):
    gc.collect()
    result = Pass()
    probes = []
    start = time.perf_counter()
    for job in jobs:
        probes.append(calibrate())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = job.run()
            else:
                with tracer.root(job.label, "job"):
                    output = job.run()
            error = None
        except Exception:  # every failure of a job is recorded, the run goes on
            output, error = None, traceback.format_exc(limit=4)
        result.latency.append(time.perf_counter() - t0)
        result.outcome.append((output, error))
    probes.append(calibrate())
    result.wall = time.perf_counter() - start
    result.factor = [speed_factor(probes[j:j + 2]) for j in range(len(jobs))]
    return result


def run_passes(jobs, seconds, min_passes, tracer=None, on_pass=None):
    """Repeat passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, tracer))
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        longest = max(p.wall for p in passes)
        if len(passes) >= min_passes and elapsed + longest > seconds:
            return passes


# ---------------------------------------------------------------------------
# Checks, outside the timed region


def check_outputs(workloads, jobs, passes):
    """Full check of each job's first output; later outputs must repeat it.
    Returns (attempted, failures) with failures as (job label, reason)."""
    attempted = 0
    failures = []
    first = {}
    for p in passes:
        for job, (output, error) in zip(jobs, p.outcome):
            attempted += 1
            if error is not None:
                failures.append((job.label, error))
                continue
            if job.label not in first:
                try:
                    reason = job.check(output)
                except Exception:
                    reason = "check raised\n" + traceback.format_exc(limit=4)
                first[job.label] = (workloads.summary(output), reason)
                if reason:
                    failures.append((job.label, reason))
                continue
            expected, reason = first[job.label]
            if reason:
                failures.append((job.label, reason))
            elif workloads.summary(output) != expected:
                failures.append((job.label, "output differs from the first pass"))
    return attempted, failures


# ---------------------------------------------------------------------------
# Metrics


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_seconds(passes, corrected=True):
    """Each job's median latency over the passes.

    The program is deterministic, so a job's latencies differ only by the
    host's noise; the median leaves out the bursts that hit fewer than half
    of a job's runs."""
    rows = [p.corrected() if corrected else p.latency for p in passes]
    return [statistics.median(samples) for samples in zip(*rows)]


def pass_work(jobs, passes):
    """Work items of one pass, from the first pass in which no job failed."""
    for p in passes:
        if all(error is None for _, error in p.outcome):
            return sum(job.work(output) for job, (output, _) in zip(jobs, p.outcome))
    return 0


def end_to_end(jobs, passes, setup_s):
    per_job = job_seconds(passes)
    run_s = sum(per_job)
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "throughput": pass_work(jobs, passes) / run_s,
        "latency_p50_s": statistics.median(per_job),
        "latency_p90_s": statistics.quantiles(per_job, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def suite_seconds(jobs, passes):
    out = {}
    for p in passes:
        for job, seconds in zip(jobs, p.latency):
            if job.suite:
                out[job.suite] = out.get(job.suite, 0.0) + seconds
    return out


def source_hash():
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("pisupport/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _changed(a, b):
    return {k for k in set(a) | set(b) if a.get(k) != b.get(k)}


def count_drift(per_pass, path, source, smoke):
    """Counters that differ between traced passes of this run, or from the
    last run of the same workload, seed and source."""
    drift = set()
    for counts in per_pass[1:]:
        drift |= _changed(counts, per_pass[0])
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["source"] == source and previous["smoke"] == smoke:
            drift |= _changed(previous["counts"], per_pass[0])
    path.write_text(json.dumps(
        {"source": source, "smoke": smoke, "counts": per_pass[0]}, indent=1))
    return sorted(drift)


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def traced_run(jobs, args, record):
    """Untraced passes for half of the time, traced passes for the rest.
    Returns the per-layer metrics and all passes; adds the trace data to
    ``record`` and writes the spans file."""
    plain = run_passes(jobs, args.seconds / 2, min_passes=1)
    tracer = tracing.Tracer()
    snapshots = [tracing.cumulative_counts(tracer)]
    tracer.install()
    try:
        traced = run_passes(
            jobs, args.seconds / 2, min_passes=2, tracer=tracer,
            on_pass=lambda: snapshots.append(tracing.cumulative_counts(tracer)),
        )
    finally:
        bindings = tracer.bindings()
        tracer.uninstall()
    per_pass = [
        {k: v - before.get(k, 0) for k, v in after.items()}
        for before, after in zip(snapshots, snapshots[1:])
    ]
    OUT.mkdir(exist_ok=True)
    drift = count_drift(
        per_pass, OUT / f"counts-{args.workload}-seed{args.seed}.json",
        source_hash(), args.smoke,
    )
    traced_s = sum(sum(p.latency) for p in traced)
    metrics = tracing.layer_metrics(
        tracer, traced_s, suite_seconds(jobs, traced), len(traced))
    traced_run_s = sum(job_seconds(traced))
    metrics["trace.run_s"]["value"] = traced_run_s
    metrics["trace.overhead_ratio"]["value"] = traced_run_s / sum(job_seconds(plain))
    metrics["trace.count_drift"]["value"] = len(drift)
    record.update({
        "untraced_pass_s": [p.wall for p in plain],
        "traced_pass_s": [p.wall for p in traced],
        "self_s": dict(sorted(tracer.self_s.items())),
        "counts_per_pass": per_pass,
        "count_drift": drift,
        "patched_bindings": bindings,
    })
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as f:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "dropped": tracer.dropped, "spans": tracer.spans}, f)
    if drift:
        print(f"warning: work counts drifted: {', '.join(drift)}", file=sys.stderr)
    return metrics, plain + traced


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pisupport" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup_probes = [calibrate() for _ in range(CAL_SAMPLES)]
    import_s = import_package()
    import workloads

    inputs, setup_times = set_up(workloads, args.workload, args.seed, args.smoke,
                                 setup_probes)
    setup_raw_s = import_s + statistics.median(setup_times)
    setup_s = setup_raw_s * speed_factor(setup_probes)
    jobs = inputs.jobs
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(args.seed),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "jobs": [job.label for job in jobs],
    }

    if args.trace == 0:
        passes = run_passes(jobs, args.seconds, min_passes=2)
        metrics = end_to_end(jobs, passes, setup_s)
        all_passes = passes
    else:
        metrics, all_passes = traced_run(jobs, args, record)

    attempted, failures = check_outputs(workloads, jobs, all_passes)
    measured = job_seconds(all_passes, corrected=False)
    record.update({
        "setup_measured_s": setup_raw_s,
        "setup_probes_s": setup_probes,
        "pass_s": [p.wall for p in all_passes],
        "speed_factor": {job.label: [p.factor[i] for p in all_passes]
                         for i, job in enumerate(jobs)},
        "latency_s": {job.label: [p.latency[i] for p in all_passes]
                      for i, job in enumerate(jobs)},
        "run_measured_s": sum(measured),
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    info = record["machine"]
    print(f"{args.workload} seed={args.seed} passes={len(all_passes)} "
          f"jobs/pass={len(jobs)} latency samples={len(jobs) * len(all_passes)} "
          f"measured run_s={sum(measured):.4f} speed factors="
          f"{min(min(p.factor) for p in all_passes):.3f}.."
          f"{max(max(p.factor) for p in all_passes):.3f} "
          f"nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']}", file=sys.stderr)
    print(f"failed_share={len(failures)}/{attempted}", file=sys.stderr)
    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
