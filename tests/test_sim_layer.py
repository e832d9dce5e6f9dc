"""Tests for the measurement layer: runner caching, baselines, sweeps."""

import dataclasses

import pytest

from repro.config import baseline
from repro.sim.engine import get_engine
from repro.sim.results import aggregate_by_class, normalize_to, run_fairness
from repro.sim.runner import RunSpec, clear_run_cache, run_workload
from repro.sim.sweep import sweep_policies
from repro.trace.workloads import Workload, get_workloads

#: Tiny spec so these tests stay fast.
TINY = RunSpec(trace_len=400, seed=2, max_cycles=300_000)

WORKLOAD = Workload("ILP2", ("gzip", "eon"))
MEM_WORKLOAD = Workload("MEM2", ("swim", "art"))


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_run_cache()
    yield
    clear_run_cache()


class TestRunner:
    def test_run_workload_returns_metrics(self):
        run = run_workload(WORKLOAD, "icount", spec=TINY)
        assert run.throughput > 0
        assert len(run.ipcs) == 2
        assert run.executed >= run.result.total_committed

    def test_memoization_returns_same_object(self):
        first = run_workload(WORKLOAD, "icount", spec=TINY)
        second = run_workload(WORKLOAD, "icount", spec=TINY)
        assert first is second

    def test_distinct_policies_distinct_runs(self):
        first = run_workload(MEM_WORKLOAD, "icount", spec=TINY)
        second = run_workload(MEM_WORKLOAD, "rat", spec=TINY)
        assert first is not second

    def test_distinct_configs_distinct_runs(self):
        small = baseline().with_registers(160)
        first = run_workload(WORKLOAD, "icount", spec=TINY)
        second = run_workload(WORKLOAD, "icount", config=small, spec=TINY)
        assert first is not second


class TestBaselines:
    def test_single_thread_ipc_positive(self):
        assert get_engine().single_thread_ipc("gzip", spec=TINY) > 0

    def test_memoized(self):
        first = get_engine().single_thread_ipc("gzip", spec=TINY)
        second = get_engine().single_thread_ipc("gzip", spec=TINY)
        assert first == second

    def test_policy_field_ignored_for_reference(self):
        via_rat = get_engine().single_thread_ipc(
            "gzip", config=baseline().with_policy("rat"), spec=TINY)
        via_icount = get_engine().single_thread_ipc("gzip", spec=TINY)
        assert via_rat == via_icount


class TestAggregation:
    def test_aggregate_requires_homogeneous_runs(self):
        ilp = run_workload(WORKLOAD, "icount", spec=TINY)
        mem = run_workload(MEM_WORKLOAD, "icount", spec=TINY)
        with pytest.raises(ValueError):
            aggregate_by_class([ilp, mem], spec=TINY)

    def test_aggregate_single_run(self):
        run = run_workload(WORKLOAD, "icount", spec=TINY)
        agg = aggregate_by_class([run], spec=TINY)
        assert agg.klass == "ILP2"
        assert agg.throughput == pytest.approx(run.throughput)
        assert 0 <= agg.fairness <= 1.5

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_by_class([], spec=TINY)

    def test_fairness_uses_references(self):
        run = run_workload(WORKLOAD, "icount", spec=TINY)
        value = run_fairness(run, spec=TINY)
        assert 0 < value <= 1.5

    def test_normalize_to(self):
        values = {"a": 2.0, "b": 4.0}
        normalized = normalize_to(values, "a")
        assert normalized == {"a": 1.0, "b": 2.0}

    def test_normalize_rejects_zero_base(self):
        with pytest.raises(ValueError):
            normalize_to({"a": 0.0}, "a")


class TestSweep:
    def test_sweep_shapes(self):
        sweep = sweep_policies(("icount", "rat"), ("MEM2",), spec=TINY,
                               workloads_per_class=2)
        assert set(sweep.cells) == {("icount", "MEM2"), ("rat", "MEM2")}
        row = sweep.row("rat", "throughput")
        assert len(row) == 1 and row[0] > 0

    def test_relative_metric(self):
        sweep = sweep_policies(("icount", "rat"), ("MEM2",), spec=TINY,
                               workloads_per_class=2)
        relative = sweep.relative("rat", "icount", "throughput")
        assert relative[0] == pytest.approx(
            sweep.metric("rat", "MEM2", "throughput")
            / sweep.metric("icount", "MEM2", "throughput"))

    def test_average(self):
        sweep = sweep_policies(("icount",), ("ILP2", "MEM2"), spec=TINY,
                               workloads_per_class=1)
        average = sweep.average("icount", "throughput")
        row = sweep.row("icount", "throughput")
        assert average == pytest.approx(sum(row) / 2)

    def test_workloads_per_class_cap(self):
        sweep = sweep_policies(("icount",), ("ILP2",), spec=TINY,
                               workloads_per_class=3)
        assert len(sweep.cells[("icount", "ILP2")].runs) == 3
