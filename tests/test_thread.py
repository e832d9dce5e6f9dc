"""Tests for ThreadContext."""

from repro.core.regfile import PhysRegFile
from repro.core.rename import RenameState
from repro.core.thread import PASS_STRIDE_BYTES, ThreadContext

from repro.testing import TraceBuilder


def _thread(trace=None, pass_shift=True, tid=0):
    if trace is None:
        trace = (TraceBuilder().ialu(1).load(2, 64).branch(taken=True)
                 .build())
    int_file = PhysRegFile("int", 96)
    fp_file = PhysRegFile("fp", 96)
    rename = RenameState(tid, int_file, fp_file)
    return ThreadContext(tid, trace, rename, pass_shift=pass_shift)


class TestFetchCursor:
    def test_next_inst_advances(self):
        thread = _thread()
        first = thread.next_inst(gseq=0)
        second = thread.next_inst(gseq=1)
        assert first.trace_index == 0 and second.trace_index == 1
        assert (first.gseq, second.gseq) == (0, 1)

    def test_wraps_and_counts_pass(self):
        thread = _thread()
        for _ in range(3):
            thread.next_inst(0)
        assert thread.cursor == 0
        assert thread.pass_no == 1

    def test_rewind(self):
        thread = _thread()
        for _ in range(3):
            thread.next_inst(0)
        thread.rewind_to(1, 0)
        inst = thread.next_inst(0)
        assert inst.trace_index == 1 and inst.pass_no == 0

    def test_memory_instruction_gets_physical_address(self):
        thread = _thread()
        thread.next_inst(0)
        load = thread.next_inst(0)
        assert load.addr == thread.data_base + 64


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
        assert thread.arch_is_invalid(40)
        thread.note_arch_invalid(40, False)
        assert not thread.arch_is_invalid(40)

    def test_integer_regs_can_be_flagged(self):
        # INV recycling applies to both register classes.
        thread = _thread()
        thread.note_arch_invalid(5, True)
        assert thread.arch_is_invalid(5)
        assert not thread.arch_is_invalid(-1)

    def test_clear_all(self):
        thread = _thread()
        thread.note_arch_invalid(5, True)
        thread.note_arch_invalid(60, True)
        thread.clear_arch_invalid()
        assert not thread.arch_is_invalid(5)
        assert not thread.arch_is_invalid(60)


class TestNextInstMatchesPipelineInline:
    """``ThreadContext.next_inst`` is the readable reference for the
    fetch loop inlined into ``SMTPipeline._fetch_thread``; this pins the
    two copies together so an edit to either cannot silently diverge.
    """

    def test_inlined_fetch_loop_materializes_identical_instructions(self):
        from repro.config import baseline
        from repro.core.pipeline import SMTPipeline
        from repro.policies.registry import create_policy
        from repro.trace.generator import generate_trace

        config = baseline()
        make = lambda: [generate_trace("mcf", 300, 3)]
        pipeline = SMTPipeline(config, make(), create_policy("icount",
                                                             config))
        thread = pipeline.threads[0]
        # Step (cold icache: the first line fill takes a full memory
        # round trip) until the first fetch block lands, then stop —
        # the stream consumed so far is linear, since no misprediction
        # can have resolved and rewound the cursor yet.
        for _ in range(2_000):
            pipeline.step()
            if thread.stats.fetched:
                break
        fetched = sorted(
            [inst for inst in pipeline.rob._queues[0]]
            + list(thread.fetch_queue), key=lambda inst: inst.gseq)
        assert fetched, "premise: nothing was fetched in 2000 cycles"

        reference = SMTPipeline(config, make(),
                                create_policy("icount", config))
        ref_thread = reference.threads[0]
        for got in fetched:
            want = ref_thread.next_inst(got.gseq)
            for field in ("tid", "gseq", "trace_index", "pass_no",
                          "op", "pc", "addr", "dest_arch", "src1_arch",
                          "src2_arch", "taken", "is_load", "is_store",
                          "is_mem", "is_branch"):
                assert getattr(got, field) == getattr(want, field), (
                    f"inlined fetch loop diverged from next_inst on "
                    f"{field} at gseq {got.gseq}")
        assert ref_thread.cursor == thread.cursor
        assert ref_thread.pass_no == thread.pass_no
