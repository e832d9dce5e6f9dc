"""Tests for the Runahead Threads mechanism (paper §3)."""

import dataclasses

import pytest

from repro.core.dyninst import DynInst, InstState
from repro.core.runahead import RunaheadCache
from repro.core.thread import ThreadMode
from repro.isa import NO_REG, NUM_INT_ARCH_REGS, OpClass, RegClass

from repro.testing import SMALL_CONFIG, TraceBuilder, make_processor

FULL_MISS = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
             + SMALL_CONFIG.memory_latency)


def _miss_trace(tail_ops=200):
    """A trace whose first load always misses to memory, followed by
    independent work and a second *distant* miss: far enough that a
    stalled thread's already-fetched window does not reach it (so only
    runahead can expose its parallelism), near enough that a runahead
    episode does."""
    builder = TraceBuilder()
    builder.load(9, 0x10000)              # long-latency trigger
    builder.ialu(10, src1=9)              # dependent: folds in runahead
    for index in range(tail_ops):
        builder.ialu(1 + index % 8)       # independent address-pool work
    builder.load(11, 0x20000)             # independent: prefetched
    builder.ialu(12, src1=11)
    builder.nops(10)
    return builder.build()


def _run_until(cpu, predicate, limit=5000):
    for _ in range(limit):
        if predicate():
            return True
        cpu.step()
    return False


class TestEntryAndExit:
    def test_enters_runahead_on_l2_miss_at_head(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        thread = cpu.pipeline.threads[0]
        assert _run_until(cpu, lambda: thread.in_runahead)
        assert thread.stats.runahead_episodes == 1

    def test_icount_never_enters_runahead(self):
        cpu = make_processor([_miss_trace()], policy="icount")
        thread = cpu.pipeline.threads[0]
        cpu.run()
        assert thread.stats.runahead_episodes == 0

    def test_exits_when_miss_resolves(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        thread = cpu.pipeline.threads[0]
        assert _run_until(cpu, lambda: thread.in_runahead)
        assert _run_until(cpu, lambda: not thread.in_runahead)
        assert thread.mode == ThreadMode.NORMAL

    def test_rewinds_to_trigger_load(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        thread = cpu.pipeline.threads[0]
        _run_until(cpu, lambda: thread.in_runahead)
        trigger_index = thread.runahead_trigger_index
        _run_until(cpu, lambda: not thread.in_runahead)
        assert thread.cursor == trigger_index

    def test_architectural_state_restored_after_exit(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        thread = cpu.pipeline.threads[0]
        _run_until(cpu, lambda: thread.in_runahead)
        arch_snapshot = [list(thread.rename.arch[RegClass.INT]),
                         list(thread.rename.arch[RegClass.FP])]
        _run_until(cpu, lambda: not thread.in_runahead)
        assert thread.rename.front[RegClass.INT] == arch_snapshot[0]
        assert thread.rename.front[RegClass.FP] == arch_snapshot[1]
        cpu.pipeline.check_invariants()

    def test_all_work_commits_architecturally(self):
        trace = _miss_trace()
        cpu = make_processor([trace], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].committed >= len(trace)
        cpu.pipeline.check_invariants()

    def test_pseudo_retired_work_recorded(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].pseudo_retired > 0

    def test_runahead_cycles_sampled(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        result = cpu.run()
        stats = result.thread_stats[0]
        assert stats.runahead_cycles > 0
        assert stats.runahead_reg_samples == stats.runahead_cycles


class TestPrefetching:
    def test_runahead_prefetches_future_miss(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        cpu.run()
        assert cpu.pipeline.mem.stats[0].prefetches > 0

    def test_runahead_faster_than_stall_on_mlp(self):
        trace = _miss_trace()
        rat_cycles = make_processor([trace], policy="rat").run().cycles
        stall_cycles = make_processor([trace], policy="stall").run().cycles
        assert rat_cycles < stall_cycles

    def test_prefetch_ablation_suppresses_memory_traffic(self):
        trace = _miss_trace()
        cpu = make_processor([trace], policy="rat", rat_prefetch=False)
        cpu.run()
        assert cpu.pipeline.mem.stats[0].prefetches == 0

    def test_prefetch_ablation_is_slower(self):
        trace = _miss_trace()
        with_pf = make_processor([trace], policy="rat").run().cycles
        without_pf = make_processor([trace], policy="rat",
                                    rat_prefetch=False).run().cycles
        assert without_pf >= with_pf

    def test_no_retrigger_after_suppressed_prefetch(self):
        trace = _miss_trace()
        cpu = make_processor([trace], policy="rat", rat_prefetch=False)
        thread = cpu.pipeline.threads[0]
        cpu.run()
        # The second load's prefetch was suppressed; after recovery it must
        # not re-trigger runahead (paper §6.1).
        assert thread.no_retrigger
        assert thread.stats.runahead_episodes == 1


class TestInvalidPropagation:
    def test_dependents_fold(self):
        cpu = make_processor([_miss_trace()], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].folded > 0

    def test_invalid_branch_does_not_redirect(self):
        builder = TraceBuilder()
        builder.load(9, 0x10000)
        builder.branch(taken=True, src1=9)   # depends on the missing load
        builder.nops(30)
        cpu = make_processor([builder.build()], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].committed >= 32
        cpu.pipeline.check_invariants()

    def test_dependent_load_does_not_prefetch(self):
        # Long tail so the trace does not wrap into a second pass (whose
        # loads would legitimately prefetch) during the episode.
        builder = TraceBuilder()
        builder.load(9, 0x10000)
        builder.load(10, 0x20000, src1=9)    # chase: address is INV
        builder.nops(600)
        cpu = make_processor([builder.build()], policy="rat")
        cpu.run()
        # The chase load folded with an INV address: no speculative access.
        assert cpu.pipeline.mem.stats[0].prefetches == 0


    @pytest.mark.xfail(strict=True, reason=(
        "known model defect, kept bit for bit: _src_ready latches INV by "
        "raw register number, and the INT and FP files share numbers "
        "(ROADMAP, honest limits)"))
    def test_fp_store_data_inv_leaves_its_int_address_valid(self):
        # An FP store whose INT address register and FP data register
        # share the physical number 40.  The address was ready and valid
        # at dispatch; the data register now completes INV.  Only bit 1
        # (src2, the data) should latch, so the store keeps its address
        # and issues (prefetch, runahead-cache record) instead of folding.
        pipeline = make_processor([_miss_trace()], policy="rat").pipeline
        store = DynInst(0, 0, 0, 0, int(OpClass.FSTORE), 0x100, 0x2000,
                        NO_REG, 1, NUM_INT_ARCH_REGS + 1, False)
        store.psrc1 = store.psrc2 = 40
        store.state = InstState.DISPATCHED
        store.pending_srcs = 1
        pipeline._src_ready(store, 10, 40, True)
        assert store.src_inv_mask == 2


class TestFPInvalidation:
    def _fp_trace(self):
        builder = TraceBuilder()
        builder.load(9, 0x10000)        # trigger
        builder.fadd(40, src1=41)       # FP compute: dropped at decode
        builder.fadd(42, src1=40)       # consumer of dropped producer
        builder.nops(30)
        return builder.build()

    def test_fp_ops_fold_at_decode_in_runahead(self):
        cpu = make_processor([self._fp_trace()], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].committed >= 33
        cpu.pipeline.check_invariants()

    def test_fp_invalidation_can_be_disabled(self):
        cpu = make_processor([self._fp_trace()], policy="rat",
                             rat_fp_invalidation=False)
        result = cpu.run()
        assert result.thread_stats[0].committed >= 33

    def test_sync_ignored_in_runahead(self):
        builder = TraceBuilder()
        builder.load(9, 0x10000)
        builder.sync(src1=1)
        builder.nops(30)
        cpu = make_processor([builder.build()], policy="rat")
        result = cpu.run()
        assert result.thread_stats[0].committed >= 32


class TestStopFetchAblation:
    def test_stop_fetch_limits_speculation(self):
        trace = _miss_trace()
        normal = make_processor([trace], policy="rat")
        normal_result = normal.run()
        stopped = make_processor([trace], policy="rat",
                                 rat_stop_fetch_in_runahead=True)
        stopped_result = stopped.run()
        assert (stopped_result.thread_stats[0].pseudo_retired
                <= normal_result.thread_stats[0].pseudo_retired)


class TestRunaheadCache:
    def test_store_to_load_validity_forwarding(self):
        cache = RunaheadCache(1024)
        cache.record_store(0x100, valid=False)
        assert cache.probe_load(0x100) is False
        cache.record_store(0x100, valid=True)
        assert cache.probe_load(0x100) is True

    def test_miss_returns_none(self):
        cache = RunaheadCache(1024)
        assert cache.probe_load(0x500) is None

    def test_capacity_eviction(self):
        cache = RunaheadCache(16)   # two 8-byte words
        cache.record_store(0x00, True)
        cache.record_store(0x08, True)
        cache.record_store(0x10, True)
        assert cache.probe_load(0x00) is None

    def test_clear(self):
        cache = RunaheadCache(1024)
        cache.record_store(0x100, True)
        cache.clear()
        assert cache.probe_load(0x100) is None

    def test_pipeline_with_runahead_cache_enabled(self):
        builder = TraceBuilder()
        builder.load(9, 0x10000)
        builder.store(0x30000, src1=1, src2=2)
        builder.load(10, 0x30000)
        builder.nops(30)
        cpu = make_processor([builder.build()], policy="rat",
                             rat_runahead_cache=True)
        result = cpu.run()
        assert result.thread_stats[0].committed >= 33
        cpu.pipeline.check_invariants()


class TestRegisterPressure:
    def test_runahead_mode_holds_fewer_registers(self):
        # A memory-bound loop: in normal mode the window fills with
        # in-flight instructions holding registers; in runahead they drain.
        builder = TraceBuilder()
        for index in range(12):
            builder.load(9 + index % 8, 0x10000 + 0x1000 * index)
            builder.ialu(17, src1=9 + index % 8)
            builder.nops(4)
        cpu = make_processor([builder.build()], policy="rat")
        result = cpu.run()
        stats = result.thread_stats[0]
        if stats.runahead_reg_samples:
            assert stats.avg_regs_runahead() < stats.avg_regs_normal() * 1.5
