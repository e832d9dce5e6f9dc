"""Tests for the processor facade: SimResult, warmup, run loop."""

import os

import pytest

from repro.core.processor import SimResult, SMTProcessor
from repro.core.stats import ThreadStats
from repro.errors import SimulationError
from repro.sim.runner import FULL_ENV_VAR, RunSpec, default_spec
from repro.experiments.common import bench_workloads_per_class
from repro.trace.generator import generate_trace

from repro.testing import (SMALL_CONFIG, TraceBuilder, make_processor,
                           perceptron_weights)


def _result(committed=(100, 50), executed=(120, 60), cycles=100):
    stats = []
    for c, e in zip(committed, executed):
        ts = ThreadStats()
        ts.committed = c
        ts.executed = e
        stats.append(ts)
    return SimResult(benchmarks=["a", "b"][:len(stats)], policy="icount",
                     cycles=cycles, thread_stats=stats)


class TestSimResult:
    def test_ipcs_and_throughput(self):
        result = _result(committed=(100, 50), cycles=100)
        assert result.ipcs == [1.0, 0.5]
        assert result.throughput == pytest.approx(0.75)

    def test_totals(self):
        result = _result()
        assert result.total_committed == 150
        assert result.total_executed == 180

    def test_avg_cpi(self):
        result = _result(committed=(100, 100), cycles=100)
        assert result.avg_cpi == pytest.approx(0.5)

    def test_ed2_normalized_per_committed(self):
        result = _result(committed=(100, 0), executed=(200, 0), cycles=100)
        # (200/100) * (100/100)^2 = 2.0
        assert result.ed2() == pytest.approx(2.0)

    def test_ed2_infinite_without_work(self):
        result = _result(committed=(0, 0), executed=(0, 0))
        assert result.ed2() == float("inf")
        assert result.avg_cpi == float("inf")

    def test_summary_keys(self):
        summary = _result().summary()
        assert set(summary) == {"cycles", "throughput", "committed",
                                "executed", "ed2"}

    def test_num_threads(self):
        assert _result().num_threads == 2


class TestRunLoop:
    def test_min_passes_validated(self):
        cpu = make_processor([TraceBuilder().nops(5).build()])
        with pytest.raises(SimulationError):
            cpu.run(min_passes=0)

    def test_multiple_passes(self):
        cpu = make_processor([TraceBuilder().nops(10).build()])
        result = cpu.run(min_passes=4)
        assert result.thread_stats[0].passes >= 4

    def test_l2_misses_reported(self):
        trace = TraceBuilder().load(9, 0x50000).nops(5).build()
        cpu = make_processor([trace])
        result = cpu.run()
        assert result.l2_misses[0] >= 1

    def test_step_advances_cycle(self):
        cpu = make_processor([TraceBuilder().nops(5).build()])
        cpu.step(3)
        assert cpu.cycle == 3


class TestWarmup:
    def test_warmup_installs_small_working_set(self):
        # SMALL data region (fits the small L2 comfortably): fully warmed.
        trace = TraceBuilder(data_region=4096).load(9, 128).nops(5).build()
        cpu = make_processor([trace])  # SMALL_CONFIG has warmup=True
        thread = cpu.pipeline.threads[0]
        assert cpu.pipeline.mem.peek_data(
            thread.physical_addr(128, 0)) == "l1"

    def test_warmup_skips_transient_lines_of_big_working_sets(self):
        # One-touch lines of a >L2 region stay cold (selective warmup).
        trace = TraceBuilder(data_region=1 << 26).load(9, 640).nops(5).build()
        cpu = make_processor([trace])
        thread = cpu.pipeline.threads[0]
        assert cpu.pipeline.mem.peek_data(
            thread.physical_addr(640, 0)) == "memory"

    def test_warmup_can_be_disabled(self):
        trace = TraceBuilder(data_region=4096).load(9, 128).nops(5).build()
        cpu = make_processor([trace], warmup=False)
        thread = cpu.pipeline.threads[0]
        assert cpu.pipeline.mem.peek_data(
            thread.physical_addr(128, 0)) == "memory"

    def test_warmup_resets_statistics(self):
        trace = generate_trace("gzip", 600, 11)
        cpu = SMTProcessor(SMALL_CONFIG.with_policy("icount"), [trace])
        assert cpu.pipeline.mem.total_stats().loads == 0

    def test_warmup_trains_predictor_weights(self):
        trace = generate_trace("gzip", 600, 11)
        cpu = SMTProcessor(SMALL_CONFIG.with_policy("icount"), [trace])
        _biases, weights = perceptron_weights(cpu.pipeline.predictor)
        assert any(w != 0 for row in weights for w in row)


class TestEnvironmentKnobs:
    def test_default_spec_without_env(self, monkeypatch):
        monkeypatch.delenv(FULL_ENV_VAR, raising=False)
        assert default_spec() == RunSpec()

    def test_default_spec_full(self, monkeypatch):
        monkeypatch.setenv(FULL_ENV_VAR, "1")
        assert default_spec().trace_len == 12000

    def test_bench_workloads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKLOADS", "5")
        assert bench_workloads_per_class() == 5

    def test_bench_workloads_zero_means_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKLOADS", "0")
        assert bench_workloads_per_class() is None

    def test_bench_workloads_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKLOADS", raising=False)
        assert bench_workloads_per_class(4) == 4
