"""One benchmark worker process; run.py starts it and reads the JSON it prints.

Three roles, each in a fresh interpreter with one thread:

``--setup-only``  measures set-up (import, spaces, fixtures) and exits.
``--reference``   runs every job once in the declared order, reads the peak
                  resident memory, then checks every output and prints the
                  output digests.  Checks never run inside a timed interval.
(default)         a timed worker: passes over the jobs, in an order drawn
                  from the seed, until ``--seconds`` is used up.  Every job
                  is bracketed by the reference kernel (see kernel.py) and
                  must repeat the reference digest read from standard input.
                  It prints every sample; run.py pools and reduces them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import kernel
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# share of --seconds a traced run spends untraced, for the overhead baseline
UNTRACED_SHARE = 0.4

# per-layer metrics the runner measures itself: (name, unit, better)
METRICS = [
    ("forms.ideal_canonical_ratio", "ratio", "higher"),
    ("forms.ideal_pairs", "count", "higher"),
    ("cli.output_bytes", "bytes", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


class UnitGuardError(RuntimeError):
    pass


class UnitGuard:
    """Fails the run if interpreter state that the kernel unit relies on changed.

    A tracer, a profiler or other garbage-collector settings would speed or
    slow the reference kernel together with the program and skew the unit.
    """

    def __init__(self):
        self.threshold = gc.get_threshold()  # read before the program is imported

    def check(self, where: str) -> None:
        problems = []
        if sys.gettrace() is not None:
            problems.append("sys.gettrace() is set")
        if sys.getprofile() is not None:
            problems.append("sys.getprofile() is set")
        if not gc.isenabled():
            problems.append("gc is disabled")
        if gc.get_threshold() != self.threshold:
            problems.append("gc threshold %r, default %r" % (gc.get_threshold(), self.threshold))
        if problems:
            raise UnitGuardError("unit guard after %s: %s" % (where, "; ".join(problems)))


def digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def reference(jobs: list) -> dict:
    """One pass in declared order: peak memory, then checks and digests."""
    outputs = []
    for job in jobs:
        gc.collect()
        outputs.append(job.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = {job.name: job.check(out) for job, out in zip(jobs, outputs)}
    canonical = [workloads.canonical_pairs(out) for out in outputs]
    return {
        "peak_rss_mb": peak_rss_mb,
        "digests": {job.name: digest(out) for job, out in zip(jobs, outputs)},
        "problems": problems,
        "ideal_canonical": [sum(c for c, _ in canonical), sum(n for _, n in canonical)],
        "output_bytes": sum(workloads.output_bytes(out) for out in outputs),
    }


class Runner:
    """Timed passes over the jobs; every output must repeat its reference digest."""

    def __init__(self, jobs: list, order_seed: str, guard: UnitGuard, digests: dict[str, str]):
        self.jobs = jobs
        self.rng = random.Random(order_seed)
        self.guard = guard
        self.digests = digests
        self.executions = {job.name: 0 for job in jobs}
        self.mismatches = {job.name: 0 for job in jobs}
        self.samples: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.raw: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.kernels: list[float] = []

    def _order(self) -> list:
        order = list(self.jobs)
        self.rng.shuffle(order)
        return order

    def _execute(self, job) -> kernel.Timing:
        gc.collect()
        out, timing = kernel.bracketed(job.run)
        self.executions[job.name] += 1
        if digest(out) != self.digests[job.name]:
            self.mismatches[job.name] += 1
        self.kernels.extend(timing.kernels)
        return timing

    def timed_pass(self) -> None:
        for job in self._order():
            timing = self._execute(job)
            self.samples[job.name].append(timing.norm)
            self.raw[job.name].append(timing.raw)
        self.guard.check("a timed pass")

    def traced_pass(self, tracer: tracing.Tracer) -> tuple[dict, dict[str, float]]:
        """One traced pass: (per-op totals, normalised time per job)."""
        totals: dict = {}
        job_times = {}
        tracer.install()
        try:
            for job in self._order():
                tracer.take()
                timing = self._execute(job)
                tracing.merge(totals, tracer.take(), timing.factor)
                job_times[job.name] = timing.norm
        finally:
            tracer.uninstall()
        self.guard.check("a traced pass")
        return totals, job_times

    def loop(self, seconds: float, step, min_passes: int) -> list:
        """Repeat step() while the next pass still fits in ``seconds``."""
        results = []
        start = time.perf_counter()
        last = 0.0
        while len(results) < min_passes or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            results.append(step())
            last = time.perf_counter() - t0
        return results

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "raw": self.raw,
            "kernels": self.kernels,
            "executions": self.executions,
            "mismatches": self.mismatches,
        }


def sweep(samples: dict[str, list[float]]) -> float:
    """Time to solution: the sum over jobs of each job's median time."""
    return sum(statistics.median(v) for v in samples.values())


def timed(args, jobs: list, guard: UnitGuard, digests: dict[str, str]) -> dict:
    runner = Runner(jobs, "%d:%d" % (args.seed, args.part), guard, digests)
    if not args.trace:
        runner.loop(args.seconds, runner.timed_pass, 1)
        return runner.summary()
    runner.loop(args.seconds * UNTRACED_SHARE, runner.timed_pass, 2)
    tracer = tracing.Tracer()
    traced = runner.loop(args.seconds * (1 - UNTRACED_SHARE),
                         lambda: runner.traced_pass(tracer), 1)
    traced_samples = {job.name: [times[job.name] for _, times in traced] for job in jobs}
    result = runner.summary()
    result.update(layers=tracing.layer_values([totals for totals, _ in traced]),
                  trace_overhead=sweep(traced_samples) / sweep(runner.samples))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--part", type=int, default=0, help="index of this timed worker")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    guard = UnitGuard()
    kernel.check_kernel()
    prog, timing = kernel.bracketed(lambda: workloads.Program(ROOT))
    guard.check("set-up")
    result: dict = {"setup": {"norm_s": timing.norm, "raw_s": timing.raw}}
    if not args.setup_only:
        jobs = workloads.build_jobs(prog, args.workload, args.seed)
        if args.reference:
            result.update(reference(jobs))
        else:
            result.update(timed(args, jobs, guard, json.load(sys.stdin)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
