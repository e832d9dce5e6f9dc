"""The benchmark's own tests, run at the tiny sizes (about a minute).

    python3 perfbench/selftest.py

They check that every metric is emitted with its unit, that the pinned
seed passes while a corrupted pin fails, that an out-of-package policy
subclass is reported as a kernel fallback, that a traced run proves it
ran the same program, and the refusal paths of ``run.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, metrics, workloads  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from repro.policies import StallPolicy  # noqa: E402

SEED = 1


class OutOfPackageStall(StallPolicy):
    """A policy subclass defined outside ``repro.policies``: the
    specialized kernel tier declines it."""

    def fetch_order(self, now):
        return super().fetch_order(now)


def tiny(name: str, traced: bool, pins=None, workload=None):
    return workloads.measure(workload or workloads.TINY[name], SEED, 1.0,
                             traced,
                             pins if pins is not None else checks.Pins(),
                             ROOT)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_table(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            bench = json.load(handle)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(WORKLOAD_NAMES))
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in bench[key]]
            expected = [(m.name, m.unit, m.better)
                        for m in table]
            self.assertEqual(declared, expected, key)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class TinyRunTest(unittest.TestCase):
    reports = {}

    @classmethod
    def setUpClass(cls):
        for name in WORKLOAD_NAMES:
            for traced in (False, True):
                cls.reports[(name, traced)] = tiny(name, traced)

    def test_every_metric_is_emitted_with_its_unit(self):
        for (name, traced), report in self.reports.items():
            table = metrics.PER_LAYER if traced else metrics.END_TO_END
            emitted = metrics.emit(report["values"], table)
            self.assertEqual(list(emitted), [m.name for m in table])
            for metric in table:
                entry = emitted[metric.name]
                self.assertEqual(entry["unit"], metric.unit)
                self.assertTrue(math.isfinite(entry["value"]),
                                (name, metric.name))
            if not traced:
                for metric in table:
                    self.assertGreater(emitted[metric.name]["value"], 0,
                                       (name, metric.name))

    def test_failed_share_is_zero_at_a_pinned_seed(self):
        pins = checks.Pins()
        for (name, traced), report in self.reports.items():
            workload = workloads.TINY[name]
            pinned = pins.get(workload.pin_key,
                              workloads.trace_seed(SEED, 0))
            self.assertIsNotNone(pinned, f"no pin for {workload.pin_key}")
            outcome = report["outcome"]
            self.assertGreater(outcome.attempted, 0)
            self.assertEqual(outcome.failures, [], (name, traced))

    def test_traced_runs_prove_the_same_program(self):
        for name in WORKLOAD_NAMES:
            report = self.reports[(name, True)]
            self.assertEqual(report["mismatches"], [], name)
            self.assertEqual(report["trace"]["nesting_violations"], 0)
            self.assertGreater(report["values"]["attribution.overhead"], 0)

    def test_a_layer_time_reads_zero_only_when_dropped(self):
        for name in WORKLOAD_NAMES:
            report = self.reports[(name, True)]
            zero = [metric.name for metric in metrics.PER_LAYER
                    if metric.unit == "s"
                    and report["values"][metric.name] == 0]
            self.assertEqual(sorted(zero),
                             sorted(n for n in report["dropped"]
                                    if n.endswith("_s")), name)

    def test_a_corrupted_pin_fails(self):
        data = copy.deepcopy(checks.Pins().data)
        seed = str(workloads.trace_seed(SEED, 0))
        cell_key = workloads.TINY["rat-mem4"].pin_key
        data[cell_key][seed] = "0" * 64
        campaign_key = workloads.TINY["campaign"].pin_key
        exhibits = data[campaign_key][seed]["exhibits"]
        exhibits["table1"] = "0" * 64
        corrupted = checks.Pins(data=data)
        for name in ("rat-mem4", "campaign"):
            outcome = tiny(name, False, corrupted)["outcome"]
            self.assertGreater(outcome.failed / outcome.attempted, 0, name)

    def test_an_out_of_package_policy_is_a_kernel_fallback(self):
        workload = dataclasses.replace(workloads.TINY["stall-mem2"],
                                       policy_class=OutOfPackageStall)
        report = tiny("stall-mem2", True, workload=workload)
        self.assertGreater(report["values"]["kernels.fallback_cells"], 0)
        self.assertEqual(report["mismatches"], [])

    def test_a_tier_change_under_tracing_is_caught(self):
        left = workloads.CellRun(1, 0, {"tier": "specialized", "skipped": 5,
                                        "cycles": 10, "run_ns": 1}, "d")
        right = workloads.CellRun(1, 0, {"tier": "python", "skipped": 5,
                                         "cycles": 10, "run_ns": 1}, "d")
        mismatches = workloads.same_program([("cell", left, right)])
        self.assertEqual(len(mismatches), 1)
        self.assertIn("tier", mismatches[0])


class RefusalTest(unittest.TestCase):
    def run_py(self, cwd, env=None):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rat-mem4",
             "--seed", "1", "--seconds", "1", "--size", "tiny"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=170)

    def test_a_set_knob_refuses_to_measure(self):
        env = dict(os.environ, REPRO_KERNEL="python")
        completed = self.run_py(ROOT, env)
        self.assertEqual(completed.returncode, 2)
        self.assertEqual(completed.stdout, "")

    def test_no_package_source_exits_nonzero(self):
        bare = tempfile.mkdtemp(dir=workloads.out_dir(ROOT))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = self.run_py(bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
