"""Self-tests of the benchmark (not of fiberdd).

Usage, from the root of a checkout: ``python3 bench/selftest.py``.
Takes about a minute on two cores: the smoke runs execute two real
tasks of each workload, untraced and traced, twice.
"""

import json
import tempfile
import unittest
from pathlib import Path

import run  # first: pins BLAS to one thread before numpy loads

import tracing  # noqa: E402
from checks import Checker  # noqa: E402
from tasks import WORKLOADS, Runtime, task_bytes, task_list  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TaskLists(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS:
            first = task_bytes(task_list(workload, 7, 3))
            self.assertEqual(first, task_bytes(task_list(workload, 7, 3)))

    def test_other_seed_gives_other_tasks(self):
        for workload in WORKLOADS:
            self.assertNotEqual(task_bytes(task_list(workload, 7, 3)),
                                task_bytes(task_list(workload, 8, 3)))

    def test_inputs_stay_in_their_ranges(self):
        for task in task_list("budget", 3, 4):
            self.assertTrue(0 <= task["pulses"] <= 64)
            self.assertTrue(20.0 <= task["length"] <= 50.0)
        sweep = task_list("sweep", 3, 4)
        alphas = [task["alpha"] for task in sweep]
        self.assertEqual(len(set(alphas)), len(alphas))
        for task in sweep:
            self.assertTrue(0.5 <= task["alpha"] <= 1.5)
            self.assertTrue(10.0 <= task["length_max"] <= 30.0)
            if task["density"] is not None:
                self.assertTrue(0.03 <= task["density"] <= 0.3)
        for task in task_list("mc", 3, 4):
            self.assertTrue(1.0 <= task["length"] <= 3.0)
            self.assertIn(task["trials"], (1000, 2000, 4000))
            if task["pulses"] is not None:
                self.assertTrue(1 <= task["pulses"] <= 8)


class MetricNames(unittest.TestCase):
    def test_spec_workloads_exist(self):
        # BENCHMARK.json gates a subset: budget runs by hand only.
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))

    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        tally = run.Tally()
        tally.durations = [0.1 * (i + 1) for i in range(40)]
        metrics = run.end_to_end("mc", tally, 0.5)
        self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
        self.assertEqual(metrics["ok_ratio"], 1.0)

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER_UNITS)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_package()
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        cls.runtime = Runtime(Path(cls.tmp.name))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def traced(self, workload, tasks):
        tally, metrics = run.traced(tasks, self.runtime,
                                    Checker(self.runtime, workload, 0),
                                    Path(self.tmp.name) / "trace.json")
        self.assertEqual(tally.failures, [])
        self.assertEqual(len(tally.durations), 2 * len(tasks))
        return metrics

    def test_tasks_of_each_workload_pass_with_repeatable_counts(self):
        exact = ("quadrature.integrand_points", "quadrature.panels",
                 "filters.segment_points", "dephasing.overlap_calls",
                 "evolution.overlaps_per_task", "montecarlo.trials")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                tasks = task_list(workload, 0, 1)[:2]
                first = self.traced(workload, tasks)
                self.assertEqual(set(first), set(run.PER_LAYER_UNITS))
                again = self.traced(workload, tasks)
                self.assertEqual({k: first[k] for k in exact},
                                 {k: again[k] for k in exact})
                if workload == "mc":
                    self.assertEqual(first["montecarlo.trials"],
                                     sum(t["trials"] for t in tasks))

    def test_wrong_output_fails_its_check(self):
        task = task_list("budget", 0, 1)[0]
        curve = self.runtime.execute(task)
        curve.overlap[0] *= 1.0 + 1e-6
        problem = Checker(self.runtime, "budget", 0).check(0, task, curve)
        self.assertIn("f_L", problem)

    def test_tracer_restores_bindings_and_skips_missing_names(self):
        import fiberdd
        import fiberdd.evolution

        original = fiberdd.evolution.overlap_from_positions
        saved = tracing._TARGETS
        tracing._TARGETS = saved + [("fiberdd.dephasing", "gone", "x", None)]
        tracer = tracing.Tracer()
        try:
            tracer.install()
            self.assertIsNot(fiberdd.evolution.overlap_from_positions,
                             original)
            self.assertIs(fiberdd.overlap_from_positions,
                          fiberdd.dephasing.overlap_from_positions)
        finally:
            tracer.uninstall()
            tracing._TARGETS = saved
        self.assertIs(fiberdd.evolution.overlap_from_positions, original)


if __name__ == "__main__":
    unittest.main()
