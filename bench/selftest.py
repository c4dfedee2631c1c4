"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

The file name keeps pytest's default collection of the repository's tests
from picking these up; they take about half a minute.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import laws  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PROG = workloads.Program(run.ROOT)


def _spec(metrics):
    return [{"name": n, "unit": u, "better": b} for n, u, b in metrics]


class NamesAgree(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(sorted(names), sorted(workloads.BUILDERS))

    def test_end_to_end(self):
        got = [{k: m[k] for k in ("name", "unit", "better")} for m in self.bench["end_to_end"]]
        self.assertEqual(got, _spec(run.METRICS))

    def test_per_layer(self):
        self.assertEqual(self.bench["per_layer"], _spec(tracing.METRICS + worker.METRICS))

    def test_tracer_metrics_name_traced_ops(self):
        derived = {"scalars.den_bits_max", "algebra.terms_out", "monopole.terms_out"}
        for name, _unit, _better in tracing.METRICS:
            if name not in derived:
                self.assertIn(name.rpartition(".")[0], tracing.OPS, name)

    def test_every_module_has_a_layer_metric(self):
        modules = {"scalars", "algebra", "matrices", "forms", "trig", "monopole",
                   "berezin", "cli", "linear"}
        self.assertEqual({n.split(".")[0] for n, _, _ in tracing.METRICS}, modules)


class TracerInstall(unittest.TestCase):
    def test_uninstall_restores_by_identity(self):
        t = tracing.Tracer()
        t.install()
        patches = list(t.patches)
        try:
            for container, name, original in patches:
                self.assertIsNot(vars(container)[name], original)
            patched = {(getattr(c, "__name__", ""), n) for c, n, _ in patches}
            # module namespaces that imported a name are patched too
            self.assertIn(("supersphere.cli", "chern_number"), patched)
            self.assertIn(("supersphere", "chern_number"), patched)
            self.assertIn(("Scalar", "__rmul__"), patched)
        finally:
            t.uninstall()
        self.assertEqual(t.patches, [])
        for container, name, original in patches:
            self.assertIs(vars(container)[name], original)


def _runner(jobs, seed=1, digests=None):
    return worker.Runner(jobs, "%d:0" % seed, worker.UnitGuard(), digests or {})


class Seeds(unittest.TestCase):
    def _law_digests(self, seed):
        return [worker.digest(inputs) for _, _, inputs in laws.batches(PROG, seed)]

    def test_seed_repeats_and_changes_inputs(self):
        first = self._law_digests(3)
        self.assertEqual(first, self._law_digests(3))
        other = self._law_digests(4)
        for batch, a, b in zip(laws.BATCHES, first, other):
            self.assertNotEqual(a, b, batch)

    def test_seed_permutes_job_order(self):
        jobs = workloads.build_jobs(PROG, "chern-number", 0)
        order = lambda seed: [j.name for j in _runner(jobs, seed)._order()]  # noqa: E731
        self.assertEqual(order(5), order(5))
        self.assertNotEqual(order(5), order(6))


class Tracing(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        def counts():
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "chern-cli",
                 "--seed", "2", "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bits")}
        first = counts()
        self.assertGreater(first["scalars.mul.calls"], 0)
        self.assertGreater(first["monopole.localizer.calls"], 0)
        self.assertEqual(first, counts())


class Failures(unittest.TestCase):
    def test_wrong_expected_answer_is_a_failed_job(self):
        right = workloads.build_jobs(PROG, "chern-number", 0)[:2]
        wrong = workloads.Job(right[0].name + " (wrong answer)", right[0].run,
                              lambda out: [] if out == 99 else ["got %r, expected 99" % out])
        jobs = [wrong, right[1]]
        ref = worker.reference(jobs)
        r = _runner(jobs, digests=ref["digests"])
        r.timed_pass()
        attempted, failed, problems = run.tally(ref, run.pool([r.summary()]))
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(len(problems), 1)

    def test_unit_guard_rejects_changed_gc_threshold(self):
        guard = worker.UnitGuard()
        old = gc.get_threshold()
        gc.set_threshold(old[0] + 1, *old[1:])
        try:
            with self.assertRaises(worker.UnitGuardError):
                guard.check("test")
        finally:
            gc.set_threshold(*old)
        guard.check("test")

    def test_kernel_result_is_pinned(self):
        kernel.check_kernel()


if __name__ == "__main__":
    unittest.main()
