"""The same-session performance gate's verdict, on synthetic run rows.

``benchmarks/perf_gate.py`` is a script, not a package module, so it is
loaded by path; its verdict is a pure function, so no run is started.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

GATE_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "perf_gate.py")


def _load_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _rows(overrides):
    """One passing row per side per pair of every gated workload, the
    parent at 20 kinst/s and the change at the same speed, with
    ``overrides[(side, workload, seed)]`` merged into a row."""
    rows = []
    for seed in range(1, gate.PAIRS + 1):
        for workload in gate.WORKLOADS:
            for run_order, side in enumerate(("parent", "change")):
                row = {"side": side, "seed": seed, "workload": workload,
                       "run_order": run_order, "exit": 0, "correct": True,
                       "attempted": 3, "failed": 0,
                       "metrics": {"sim_kips": 20.0, "wall_s": 3.0}}
                row.update(overrides.get((side, workload, seed), {}))
                rows.append(row)
    return rows


def _kips(ratio):
    return {"metrics": {"sim_kips": 20.0 * ratio, "wall_s": 3.0}}


CASES = [
    ("identical-sides", {}, 0,
     ["rat-mem4: median sim_kips ratio 1.000",
      "stall-mem2: median sim_kips ratio 1.000"]),
    ("rat-mem4-at-0.77",
     {("change", "rat-mem4", seed): _kips(0.77)
      for seed in range(1, gate.PAIRS + 1)}, 1,
     ["rat-mem4: median sim_kips ratio 0.770"]),
    ("one-0.70-pair", {("change", "stall-mem2", 2): _kips(0.70)}, 0,
     ["stall-mem2: median sim_kips ratio 1.000"]),
    ("change-exit-1", {("change", "stall-mem2", 3): {"exit": 1}}, 1,
     ["stall-mem2 seed 3", "change run failed"]),
    ("change-incorrect", {("change", "rat-mem4", 5): {"correct": False}}, 1,
     ["rat-mem4 seed 5", "change run failed"]),
    ("change-fails-more", {("change", "rat-mem4", 1): {"failed": 1}}, 1,
     ["rat-mem4 seed 1", "failed 1 of 3 operations, the parent 0"]),
    ("parent-fails", {("parent", "stall-mem2", 4): {"exit": 1,
                                                     "correct": False}}, 2,
     ["stall-mem2 seed 4", "parent run failed"]),
]


@pytest.mark.parametrize("overrides, status, fragments",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_verdict(overrides, status, fragments):
    got, reasons = gate.verdict(_rows(overrides))
    assert got == status, reasons
    text = "\n".join(reasons)
    for fragment in fragments:
        assert fragment in text, text
