"""Benchmark of the exact Chern pipeline; prints every metric by name and unit.

    python3 bench/run.py --workload chern-number --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16   # every workload

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Times are reference-normalised seconds (see kernel.py and README.md).

The program is imported from ``src/`` next to this directory; without it the
run fails.  Set-up is measured in SETUP_PROBES fresh interpreters plus every
worker, after one discarded probe that compiles the bytecode, and reported as
the median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 15
# timed workers per run; each process has its own memory layout, so pooling
# several averages out a per-process bias that repeating passes cannot
TIMED_WORKERS = 4
DEADLINE_S = 170.0

# end-to-end metrics: (name, unit, better)
METRICS = [
    ("setup_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("job_gmean_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
]


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float, stdin: str = "") -> dict:
    # a fixed hash seed keeps set iteration, and so the traced counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % " ".join(args))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              input=stdin, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s exceeded the deadline" % " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError("worker %s failed (exit %d):\n%s"
                         % (" ".join(args), proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(ref: dict, timed: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job execution.

    Every execution of a job whose reference output fails its check fails;
    otherwise an execution fails when its output digest differs.
    """
    attempted = failed = 0
    problems = []
    for job, found in ref["problems"].items():
        runs = 1 + timed["executions"][job]
        mismatched = timed["mismatches"][job]
        attempted += runs
        failed += runs if found else mismatched
        problems += ["%s: %s" % (job, p) for p in found]
        if mismatched:
            problems.append("%s: output differs from the reference in %d of %d runs"
                            % (job, mismatched, runs - 1))
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """The reference worker, then the timed workers with set-up probes between them.

    Slow stretches of the host last seconds, so the probes are spread over
    the run instead of running back to back.  A traced run has one timed
    worker and no probes: it reports no set-up time.
    """
    job_args = ["--workload", workload, "--seed", str(seed)]
    workers = 1 if trace else TIMED_WORKERS
    per_gap = 0 if trace else SETUP_PROBES // (workers + 1)

    def probes() -> list[dict]:
        return [_worker(["--setup-only"], deadline)["setup"] for _ in range(per_gap)]

    if not trace:
        _worker(["--setup-only"], deadline)  # compiles the bytecode; discarded
    ref = _worker(["--reference", *job_args], deadline)
    digests = json.dumps(ref["digests"])
    setups = [ref["setup"]]
    parts = []
    used = 0.0
    for part in range(workers):
        setups += probes()
        share = (seconds - used) / (workers - part)
        t0 = time.monotonic()
        parts.append(_worker([*job_args, "--seconds", "%.3f" % max(share, 0.0),
                              "--trace", str(int(trace)), "--part", str(part)],
                             deadline, stdin=digests))
        used += time.monotonic() - t0
        setups.append(parts[-1]["setup"])
    setups += probes()
    result = pool(parts)
    attempted, failed, problems = tally(ref, result)
    result.update(attempted=attempted, failed=failed, problems=problems,
                  peak_rss_mb=ref["peak_rss_mb"], ideal_canonical=ref["ideal_canonical"],
                  output_bytes=ref["output_bytes"], layers=parts[0].get("layers"),
                  trace_overhead=parts[0].get("trace_overhead"), setup_samples=setups)
    return result


def pool(parts: list[dict]) -> dict:
    """Pool the timed workers' samples per job and reduce them to the metrics."""
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for p in parts:
        for job, values in p["samples"].items():
            samples.setdefault(job, []).extend(values)
            raw.setdefault(job, []).extend(p["raw"][job])
    medians = {job: statistics.median(v) for job, v in samples.items()}
    spread = [x / medians[job] - 1.0 for job, v in samples.items() for x in v]
    q1, _, q3 = statistics.quantiles(spread, n=4)
    return {
        "sweep_s": worker.sweep(samples),
        "job_gmean_s": math.exp(statistics.fmean(math.log(m) for m in medians.values())),
        "raw_sweep_s": worker.sweep(raw),
        "kernel_ms_median": 1000 * statistics.median(k for p in parts for k in p["kernels"]),
        "job_spread": {"q1": q1, "q3": q3, "n": len(spread)},
        "passes": min(len(v) for v in samples.values()),
        "executions": {job: sum(p["executions"][job] for p in parts) for job in samples},
        "mismatches": {job: sum(p["mismatches"][job] for p in parts) for job in samples},
    }


def metric_values(result: dict, trace: bool) -> dict[str, dict]:
    if trace:
        values = dict(result["layers"])
        canonical, pairs = result["ideal_canonical"]
        values["forms.ideal_canonical_ratio"] = canonical / pairs if pairs else 0.0
        values["forms.ideal_pairs"] = pairs
        values["cli.output_bytes"] = result["output_bytes"]
        values["bench.trace_overhead"] = result["trace_overhead"]
        units = {name: unit for name, unit, _ in tracer.METRICS + worker.METRICS}
    else:
        attempted = result["attempted"]
        values = {
            "setup_s": statistics.median(s["norm_s"] for s in result["setup_samples"]),
            "sweep_s": result["sweep_s"],
            "job_gmean_s": result["job_gmean_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": (attempted - result["failed"]) / attempted,
        }
        units = {name: unit for name, unit, _ in METRICS}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report(workload: str, result: dict, metrics: dict) -> None:
    """Informational lines; the metrics themselves go in the last JSON line."""
    w = workload
    print("[%s] passes %d, attempted %d, failed %d, fail_ratio %.4g"
          % (w, result["passes"], result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for problem in result["problems"]:
        print("[%s] FAILED %s" % (w, problem))
    sq = result["job_spread"]
    print("[%s] raw sweep %.4f s; kernel median %.3f ms; set-up raw median %.4f s"
          % (w, result["raw_sweep_s"], result["kernel_ms_median"],
             statistics.median(s["raw_s"] for s in result["setup_samples"])))
    print("[%s] per-job spread over passes (host noise): q1 %+.3f, q3 %+.3f, n=%d"
          % (w, sq["q1"], sq["q3"], sq["n"]))
    canonical, pairs = result["ideal_canonical"]
    if pairs:
        print("[%s] forms.ideal_canonical_ratio %d/%d = %.3f (known defect, not a failure)"
              % (w, canonical, pairs, canonical / pairs))
    for name, m in metrics.items():
        print("[%s] %-34s %14.6g %s" % (w, name, m["value"], m["unit"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supersphere" / "__init__.py").is_file():
        print("bench: no supersphere package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
            metrics = metric_values(result, bool(args.trace))
            report(name, result, metrics)
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else name + "."
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as ex:
        print("bench: %s" % ex, file=sys.stderr)
        return 1
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
