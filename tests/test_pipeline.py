"""Pipeline behaviour tests on hand-built traces."""

import pytest

from repro.core.dyninst import InstState
from repro.errors import SimulationError
from repro.isa import OpClass

from repro.testing import SMALL_CONFIG, TraceBuilder, make_processor


class TestBasicExecution:
    def test_straightline_alu_completes(self):
        trace = TraceBuilder().nops(20).build()
        cpu = make_processor([trace])
        result = cpu.run()
        # FAME loops traces: at least one full pass commits.
        assert result.thread_stats[0].committed >= 20
        assert not result.truncated
        cpu.pipeline.check_invariants()

    def test_ipc_above_one_for_independent_alu(self):
        trace = TraceBuilder().nops(200).build()
        result = make_processor([trace]).run()
        assert result.ipcs[0] > 1.0

    def test_dependent_chain_serializes(self):
        builder = TraceBuilder()
        builder.ialu(1)
        for _ in range(99):
            builder.ialu(1, src1=1)
        chained = make_processor([builder.build()]).run()

        independent = make_processor([TraceBuilder().nops(100).build()]).run()
        assert chained.cycles > independent.cycles

    def test_commits_in_trace_order(self):
        trace = (TraceBuilder().ialu(1).load(2, 0x100).ialu(3, src1=2)
                 .store(0x200, src1=1, src2=3).build())
        cpu = make_processor([trace])
        result = cpu.run()
        assert result.thread_stats[0].committed >= 4

    def test_passes_counted(self):
        trace = TraceBuilder().nops(10).build()
        cpu = make_processor([trace])
        result = cpu.run(min_passes=3)
        assert result.thread_stats[0].passes >= 3

    def test_multithread_shares_machine(self):
        traces = [TraceBuilder(name=f"t{i}").nops(50).build()
                  for i in range(2)]
        cpu = make_processor(traces)
        result = cpu.run()
        assert all(stats.committed >= 50 for stats in result.thread_stats)
        cpu.pipeline.check_invariants()

    def test_too_many_threads_rejected(self):
        traces = [TraceBuilder(name=f"t{i}").nops(5).build()
                  for i in range(4)]
        with pytest.raises(SimulationError):
            make_processor(traces)  # 96 regs: only 2 contexts fit

    def test_truncation_flag(self):
        trace = TraceBuilder().nops(1000).build()
        cpu = make_processor([trace])
        result = cpu.run(max_cycles=10)
        assert result.truncated


class TestMemoryBehaviour:
    def test_cold_load_takes_memory_latency(self):
        trace = TraceBuilder().load(2, 0x4000).build()
        cpu = make_processor([trace])
        result = cpu.run()
        full_miss = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
                     + SMALL_CONFIG.memory_latency)
        assert result.cycles >= full_miss

    def test_warm_load_is_fast(self):
        trace = TraceBuilder().load(2, 0x4000).build()
        cpu = make_processor([trace])
        cpu.pipeline.mem.warm_data(
            [cpu.pipeline.threads[0].physical_addr(0x4000, 0)])
        result = cpu.run()
        assert result.cycles < 30

    def test_store_writes_at_commit(self):
        trace = TraceBuilder().store(0x5000).nops(5).build()
        cpu = make_processor([trace])
        cpu.run()
        line = cpu.pipeline.mem.dcache.line_of(
            cpu.pipeline.threads[0].physical_addr(0x5000, 0))
        assert cpu.pipeline.mem.dcache.contains(line)

    def test_independent_misses_overlap(self):
        # Two independent loads to distinct lines should overlap their
        # memory latency (MLP), not serialize.
        builder = TraceBuilder()
        builder.load(2, 0x4000)
        builder.load(3, 0x8000)
        cpu = make_processor([builder.build()])
        result = cpu.run()
        full_miss = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
                     + SMALL_CONFIG.memory_latency)
        assert result.cycles < 2 * full_miss - 20

    def test_dependent_misses_serialize(self):
        builder = TraceBuilder()
        builder.load(2, 0x4000)
        builder.load(3, 0x8000, src1=2)  # address depends on first load
        cpu = make_processor([builder.build()])
        result = cpu.run()
        full_miss = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
                     + SMALL_CONFIG.memory_latency)
        assert result.cycles > 2 * full_miss - 20


class TestBranchHandling:
    def test_biased_branches_predicted_after_training(self):
        builder = TraceBuilder()
        for _ in range(40):
            builder.ialu(1)
            builder.branch(taken=False)
        cpu = make_processor([builder.build()])
        result = cpu.run(min_passes=3)
        stats = result.thread_stats[0]
        assert stats.mispredicts < stats.branches * 0.2

    def test_misprediction_squashes_and_recovers(self):
        # An alternating branch with tiny history is hard; we only check
        # correctness: everything still commits exactly once per pass.
        builder = TraceBuilder()
        for index in range(30):
            builder.ialu(1)
            builder.branch(taken=bool(index % 2))
        cpu = make_processor([builder.build()])
        result = cpu.run()
        assert result.thread_stats[0].committed >= 60
        cpu.pipeline.check_invariants()

    def test_squashed_work_counted(self):
        builder = TraceBuilder()
        for index in range(50):
            builder.nops(3)
            builder.branch(taken=(index * 7) % 3 == 0)
        cpu = make_processor([builder.build()])
        result = cpu.run()
        stats = result.thread_stats[0]
        if stats.mispredicts:
            assert stats.squashed > 0

    def test_fetch_stops_at_taken_branch(self):
        builder = TraceBuilder()
        for _ in range(10):
            builder.branch(taken=True)
        cpu = make_processor([builder.build()])
        cpu.step(2)
        # Only one taken branch can be fetched per cycle per thread.
        assert cpu.pipeline.threads[0].stats.fetched <= 2


class TestSyncOps:
    def test_sync_executes_in_normal_mode(self):
        trace = TraceBuilder().sync().nops(3).build()
        result = make_processor([trace]).run()
        assert result.thread_stats[0].committed >= 4


class TestInvariantsDuringExecution:
    def test_invariants_hold_every_10_cycles(self):
        builder = TraceBuilder()
        for index in range(60):
            if index % 7 == 3:
                builder.load(2 + index % 4, 0x1000 * index)
            elif index % 11 == 5:
                builder.branch(taken=index % 2 == 0)
            else:
                builder.ialu(1 + index % 6, src1=1 + (index + 1) % 6)
        cpu = make_processor([builder.build()], policy="rat")
        for _ in range(80):
            cpu.step(10)
            cpu.pipeline.check_invariants()
            if all(t.finished_passes for t in cpu.pipeline.threads):
                break
