"""Outside-in benchmark for wraplab.

    python3 bench/run.py --workload table_direct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one thread, one client in a closed loop: the next job starts
when the previous one returns.  The jobs of a workload come from the seed
(see workloads.py) and run in passes until --seconds have gone by, every job
at least once.  Every output is checked against the generator's reference;
a job that raises or differs counts as failed and stays in the stream.

A job's latency is the least of its samples.  End-to-end times are scaled
to a reference host speed, read off a fixed piece of reference work timed
between jobs, because the machines this runs on share their cores; the run
prints the values as measured too.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see tracer.py), in which every job runs untraced and then
traced, in whole passes.  The last line of the output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--workload all runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

checkout.use_src()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_STARTS = 9
# The host's speed is read off a fixed piece of reference work, timed every
# REFERENCE_EVERY seconds between jobs.  REFERENCE_S is that work's 10th
# percentile time on the machine the benchmark was built on (2 vCPUs at
# 2.0 GHz, Python 3.11); end-to-end times are scaled by REFERENCE_S over
# the run's own 10th percentile.
REFERENCE_EVERY = 0.1
REFERENCE_S = 0.0027
TRACE_DIR = checkout.ROOT / ".bench_build" / "trace"

E2E_UNITS = {
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Tally:
    """Latency samples per job, and what was attempted and failed."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.samples: list[list[float]] = [[] for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def add(self, j: int, seconds: float, out) -> None:
        self.samples[j].append(seconds)
        self.attempted += 1
        job = self.jobs[j]
        if isinstance(out, str) and workloads.digest(out) == job.expected:
            return
        self.failed += 1
        if not self.first_failure:
            self.first_failure = f"job {j} ({job.shape}, size {job.size}): " + (
                "".join(traceback.format_exception(out))
                if isinstance(out, BaseException)
                else "wrong output"
            )

    def per_job(self) -> list[float]:
        """Each job's latency in seconds: the least of its samples.  Other
        tenants of a shared machine slow whole stretches of a run; the least
        sample is the one they disturbed least."""
        return [min(s) for s in self.samples if s]


def timed(workload, job, j: int = 0, trace: tracer.Tracer | None = None):
    """One job of the closed loop: (seconds, output or the exception)."""
    gc.collect()
    if trace:
        trace.install()
    start = time.perf_counter()
    if trace:
        trace.begin_job(j, start)
    try:
        out = workload.run(job)
    except Exception as e:  # a failed job is counted, the loop goes on
        out = e
    end = time.perf_counter()
    if trace:
        trace.end_job(end)
        trace.uninstall()
    return end - start, out


def reference_seconds() -> float:
    """Time of a fixed piece of pure-Python work shaped like the engine's:
    a set of pairs, a dict of lists, sorted formatted lines."""
    start = time.perf_counter()
    pairs = {(i % 97, i) for i in range(3000)}
    index: dict = {}
    for a, b in pairs:
        index.setdefault(a, []).append(b)
    "\n".join(sorted(f"p({a},{b})" for a, b in pairs))
    return time.perf_counter() - start


def run_plain(workload, jobs, seconds: float, probe=None, probes: int = 0):
    """The closed loop.  Between jobs, `probe` (a set-up measurement) runs
    `probes` times, spread evenly over the run, and the reference work runs
    every REFERENCE_EVERY seconds.  Returns the tally, the probes' results
    and the reference times."""
    tally = Tally(jobs)
    start = time.perf_counter()
    every = seconds / max(probes, 1)
    probed: list = []
    reference: list = []
    next_reference = start
    i = 0
    while i < len(jobs) or time.perf_counter() < start + seconds:
        now = time.perf_counter()
        if len(probed) < probes and now >= start + len(probed) * every:
            probed.append(probe())
        if now >= next_reference:
            reference.append(reference_seconds())
            next_reference = now + REFERENCE_EVERY
        j = i % len(jobs)
        tally.add(j, *timed(workload, jobs[j]))
        i += 1
    probed.extend(probe() for _ in range(probes - len(probed)))
    return tally, probed, reference


def run_traced(workload, jobs, seconds: float):
    """Whole passes, each job untraced then traced, so per-pass counts repeat
    exactly and the overhead compares the same jobs."""
    trace = tracer.Tracer()
    plain, traced = Tally(jobs), Tally(jobs)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for j, job in enumerate(jobs):
            plain.add(j, *timed(workload, job))
            traced.add(j, *timed(workload, job, j, trace))
        passes += 1
    metrics = trace.metrics(passes)
    overhead = statistics.median(traced.per_job()) / statistics.median(plain.per_job())
    metrics["trace.overhead_frac"] = overhead - 1
    return trace, passes, plain, traced, metrics


def cold_start(name: str) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), name],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        line = probe.stdout.readline()
        took = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe for {name} failed (exit {code})")
    return took


def warm_up(workload, jobs) -> None:
    """Each distinct wrapper once on its smallest document, untimed, so
    the first timed jobs do not pay for first-use compilation caches."""
    smallest: dict = {}
    for job in jobs:
        if job.shape not in smallest or job.size < smallest[job.shape].size:
            smallest[job.shape] = job
    for job in smallest.values():
        timed(workload, job)


def e2e_metrics(tally: Tally, setup_s: float, scale: float = 1.0) -> dict:
    """The end-to-end metrics, every time multiplied by `scale`."""
    lat = [t * scale for t in tally.per_job()]
    return {
        "job_ms_p50": statistics.median(lat) * 1e3,
        "job_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "jobs_per_s": len(lat) / sum(lat),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s * scale,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:30} {value:14.6g} {units[name]}")


def measure_plain(name: str, workload, jobs, seconds: float):
    tally, starts, reference = run_plain(
        workload, jobs, seconds, lambda: cold_start(name), SETUP_STARTS
    )
    counts = [len(s) for s in tally.samples]
    print(f"{tally.attempted} executions: job_ms_p50 and job_ms_p90 over the "
          f"{len(jobs)} per-job latencies, each the least of "
          f"{min(counts)}-{max(counts)} samples; setup_s median of "
          f"{SETUP_STARTS} cold starts spread over the run")
    host = statistics.quantiles(reference, n=10)[0] if reference[1:] else reference[0]
    scale = REFERENCE_S / host
    measured = e2e_metrics(tally, statistics.median(starts))
    print(f"reference work: 10th percentile {host * 1e3:.4g} ms over "
          f"{len(reference)} timings; times below are scaled by {scale:.4g} to "
          f"the reference host.  As measured: " + ", ".join(
              f"{k} {measured[k]:.6g}" for k in ("job_ms_p50", "job_ms_p90",
                                                 "jobs_per_s", "setup_s")))
    return [tally], e2e_metrics(tally, statistics.median(starts), scale), E2E_UNITS


def measure_traced(name: str, seed: int, workload, jobs, seconds: float):
    trace, passes, plain, traced, metrics = run_traced(workload, jobs, seconds)
    print(f"traced run: {passes} whole passes, each job untraced then traced; "
          f"per-layer values are per pass over the {len(jobs)} jobs")
    if trace.absent:
        print("absent from the program, reported as 0: " + ", ".join(trace.absent))
    ranking = sorted(trace.by_stem().items(), key=lambda kv: -kv[1]["self_s"])
    print("self time per pass, largest first: " + ", ".join(
        f"{stem} {agg['self_s'] / passes:.4g} s"
        for stem, agg in ranking
        if agg["self_s"] > 0
    ))
    print(f"steps_per_hit base: {metrics['pathrange.subelem.hits']:.0f} hits per pass")
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    spans_file = TRACE_DIR / f"{name}-seed{seed}.tsv"
    trace.write_spans(spans_file)
    print(f"spans: {len(trace.spans)} written to {spans_file}")
    return [plain, traced], metrics, tracer.METRICS


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    jobs = workload.make_jobs(seed)
    print(f"workload {name}, seed {seed}: {len(jobs)} jobs, input digest "
          f"{workloads.input_digest(jobs)}")
    warm_up(workload, jobs)
    gc.collect()
    gc.freeze()
    if trace:
        tallies, metrics, units = measure_traced(name, seed, workload, jobs, seconds)
    else:
        tallies, metrics, units = measure_plain(name, workload, jobs, seconds)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"failed {failed} of {attempted} (failed_frac {failed / attempted:.6g})")
    for t in tallies:
        if t.first_failure:
            print(f"first failure: {t.first_failure}", file=sys.stderr)
    print_metrics(metrics, units)
    print(result_line(failed == 0, attempted, failed, metrics, units), flush=True)
    return 0


def measure_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged: dict = {}
    units: dict = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} failed (exit {out.returncode})")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            merged[f"{name}.{metric}"] = m["value"]
            units[f"{name}.{metric}"] = m["unit"]
    print(result_line(failed == 0, attempted, failed, merged, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return measure_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
