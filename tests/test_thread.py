"""Tests for ThreadContext."""

import dataclasses

import pytest

from repro.config import baseline
from repro.core.pipeline import SMTPipeline
from repro.core.processor import SMTProcessor
from repro.core.regfile import PhysRegFile
from repro.core.rename import RenameState
from repro.core.thread import PASS_STRIDE_BYTES, ThreadContext
from repro.mem.hierarchy import MemoryHierarchy
from repro.policies.registry import create_policy
from repro.trace.generator import generate_trace

from repro.testing import TraceBuilder


def _trace():
    return TraceBuilder().ialu(1).load(2, 64).branch(taken=True).build()


def _thread(trace=None, pass_shift=True, tid=0):
    if trace is None:
        trace = _trace()
    int_file = PhysRegFile("int", 96)
    fp_file = PhysRegFile("fp", 96)
    rename = RenameState(tid, int_file, fp_file)
    return ThreadContext(tid, trace, rename, pass_shift=pass_shift)


def _pipeline(trace=None):
    config = baseline()
    return SMTPipeline(config, [trace or _trace()],
                       create_policy("icount", config))


def _fetch(pipeline, count):
    """Run the fetch loop alone until ``count`` instructions are in the
    thread's fetch queue (waiting out i-cache misses and redirects)."""
    thread = pipeline.threads[0]
    now = 0
    while len(thread.fetch_queue) < count:
        now = max(now + 1, thread.fetch_blocked_until)
        pipeline._fetch_thread(thread, now, count - len(thread.fetch_queue))
    return list(thread.fetch_queue)


class TestFetchCursor:
    """The fetch loop walks the trace cursor (SMTPipeline._fetch_thread
    is the only code that materializes dynamic instructions)."""

    def test_next_inst_advances(self):
        pipeline = _pipeline()
        first, second = _fetch(pipeline, 2)
        assert first.trace_index == 0 and second.trace_index == 1
        assert (first.gseq, second.gseq) == (0, 1)

    def test_wraps_and_counts_pass(self):
        pipeline = _pipeline()
        _fetch(pipeline, 3)
        thread = pipeline.threads[0]
        assert thread.cursor == 0
        assert thread.pass_no == 1

    def test_rewind(self):
        pipeline = _pipeline()
        _fetch(pipeline, 3)
        thread = pipeline.threads[0]
        thread.fetch_queue.clear()
        thread.rewind_to(1, 0)
        inst, = _fetch(pipeline, 1)
        assert inst.trace_index == 1 and inst.pass_no == 0

    def test_memory_instruction_gets_physical_address(self):
        pipeline = _pipeline()
        _alu, load = _fetch(pipeline, 2)
        assert load.addr == pipeline.threads[0].data_base + 64

    @pytest.mark.parametrize("line_bytes", [48, 64])
    def test_one_icache_probe_per_line_entered(self, monkeypatch,
                                               line_bytes):
        # Thread 1's code offset is no multiple of 48, so its line
        # boundaries fall off the trace's own.
        base = baseline()
        config = dataclasses.replace(base, **{
            level: dataclasses.replace(
                getattr(base, level), line_bytes=line_bytes,
                size_bytes=getattr(base, level).size_bytes // 64 * line_bytes)
            for level in ("icache", "dcache", "l2")})
        trace = TraceBuilder().nops(30).build()
        pipeline = SMTPipeline(config, [trace, trace],
                               create_policy("icount", config))
        probed = []
        ifetch_packed = MemoryHierarchy.ifetch_packed

        def spy(mem, pc, now, tid, speculative=False):
            probed.append(pc)
            return ifetch_packed(mem, pc, now, tid, speculative)

        monkeypatch.setattr(MemoryHierarchy, "ifetch_packed", spy)
        thread = pipeline.threads[1]
        now = 0
        while len(thread.fetch_queue) < 24:
            now = max(now + 1, thread.fetch_blocked_until)
            pipeline._fetch_thread(thread, now,
                                   24 - len(thread.fetch_queue))
        pcs = [inst.pc for inst in thread.fetch_queue]
        assert pcs[0] == trace.pc[0] + thread.code_offset
        assert [pc // line_bytes for pc in probed] == sorted(
            {pc // line_bytes for pc in pcs})
        assert set(probed) <= set(pcs)

    def test_later_pass_fetches_the_shifted_address(self):
        trace = TraceBuilder(data_region=1 << 26).load(2, 128).build()
        pipeline = _pipeline(trace)
        first, second = _fetch(pipeline, 2)
        thread = pipeline.threads[0]
        assert (first.pass_no, second.pass_no) == (0, 1)
        assert first.addr == thread.physical_addr(128, 0)
        assert second.addr == thread.physical_addr(128, 1) != first.addr


class TestSharedTrace:
    """Each trace is held once per process: every thread of every
    processor running it binds the trace's own column tuples."""

    #: ThreadContext attribute -> Trace column.
    VIEWS = (("ops", "op"), ("dests", "dest"), ("src1s", "src1"),
             ("src2s", "src2"), ("addrs", "addr"), ("takens", "taken"),
             ("pcs", "pc"))

    def _processors(self):
        # generate_trace memoizes, so threads 0 and 2 run one trace.
        traces = [generate_trace(name, 600, 11)
                  for name in ("art", "mcf", "art")]
        return traces, [SMTProcessor(baseline(), traces) for _ in range(2)]

    def test_threads_bind_the_trace_columns(self):
        traces, processors = self._processors()
        assert traces[0] is traces[2]
        for processor in processors:
            for thread, trace in zip(processor.pipeline.threads, traces):
                for view, column in self.VIEWS:
                    assert getattr(thread, view) is getattr(trace, column), (
                        thread.tid, view)

    def test_no_thread_holds_a_per_row_copy(self):
        traces, processors = self._processors()
        for thread, trace in zip(processors[0].pipeline.threads, traces):
            columns = [getattr(trace, column) for _view, column in self.VIEWS]
            for slot in ThreadContext.__slots__:
                value = getattr(thread, slot, None)
                if (isinstance(value, (list, tuple))
                        and len(value) == len(trace)):
                    assert any(value is column for column in columns), (
                        thread.tid, slot)


class TestAddressing:
    def test_threads_have_disjoint_segments(self):
        first = _thread(tid=0)
        second = _thread(tid=1)
        assert first.data_base != second.data_base
        assert first.code_offset != second.code_offset

    def test_pass_shift_moves_addresses(self):
        trace = TraceBuilder(data_region=1 << 24).load(2, 128).build()
        thread = _thread(trace)
        assert (thread.physical_addr(128, 1)
                == thread.data_base + (128 + PASS_STRIDE_BYTES) % (1 << 24))

    def test_pass_shift_disabled_for_cacheable_threads(self):
        trace = TraceBuilder(data_region=1 << 24).load(2, 128).build()
        thread = _thread(trace, pass_shift=False)
        assert thread.physical_addr(128, 5) == thread.physical_addr(128, 0)

    def test_shift_stays_in_region(self):
        trace = TraceBuilder(data_region=4096).load(2, 100).build()
        thread = _thread(trace)
        for pass_no in range(10):
            addr = thread.physical_addr(100, pass_no)
            assert thread.data_base <= addr < thread.data_base + 4096


class TestGating:
    def test_structural_block(self):
        thread = _thread()
        thread.block_fetch_until(10)
        assert not thread.can_fetch(9)
        assert thread.can_fetch(10)

    def test_policy_gate(self):
        thread = _thread()
        thread.gate_fetch_until(20)
        assert not thread.can_fetch(19)
        thread.ungate_fetch()
        assert thread.can_fetch(0)

    def test_blocks_only_extend(self):
        thread = _thread()
        thread.block_fetch_until(10)
        thread.block_fetch_until(5)
        assert thread.fetch_blocked_until == 10


class TestArchInvalid:
    def test_flag_roundtrip(self):
        thread = _thread()
        thread.note_arch_invalid(40, True)
        assert thread.arch_inv[40]
        thread.note_arch_invalid(40, False)
        assert not thread.arch_inv[40]

    def test_integer_regs_can_be_flagged(self):
        # INV recycling applies to both register classes.
        thread = _thread()
        thread.note_arch_invalid(5, True)
        assert thread.arch_inv[5]

    def test_clear_all(self):
        thread = _thread()
        thread.note_arch_invalid(5, True)
        thread.note_arch_invalid(60, True)
        thread.clear_arch_invalid()
        assert not thread.arch_inv[5]
        assert not thread.arch_inv[60]
