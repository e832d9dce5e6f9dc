"""Per-thread hardware context.

A :class:`ThreadContext` owns everything private to one hardware thread:
its trace cursor (the program counter of the trace-driven model), rename
state, fetch queue, gating/blocking state, runahead bookkeeping, and
statistics.  Shared structures (ROB, issue queues, register files, caches)
live in the pipeline.

Address spaces
--------------
Threads in a multiprogrammed workload share nothing: each thread's code and
data addresses are offset into a private segment.  Data addresses are
additionally shifted by a per-pass offset within the benchmark's working
set, so that looping a trace (the FAME measurement methodology re-executes
traces) keeps touching fresh lines when the working set exceeds the caches
instead of artificially re-hitting the first pass's footprint.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Set

from ..isa import NO_REG, NUM_ARCH_REGS, NUM_INT_ARCH_REGS
from ..trace.trace import Trace
from .dyninst import DynInst
from .rename import RenameState
from .stats import ThreadStats

#: Byte offset between consecutive passes' data footprints (multiple of the
#: line size, prime line count, so passes interleave rather than alias).
PASS_STRIDE_BYTES = 64 * 16381

#: Private data segment base and per-thread spacing.
DATA_BASE = 0x4000_0000
THREAD_DATA_SPACING = 1 << 36
THREAD_CODE_SPACING = 1 << 33


class ThreadMode(enum.IntEnum):
    NORMAL = 0
    RUNAHEAD = 1


class ThreadContext:
    """All architectural and microarchitectural state private to a thread."""

    __slots__ = (
        "tid", "trace", "rename", "mode", "stats", "_pass_stride",
        "ops", "dests", "src1s", "src2s", "addrs", "takens", "pcs",
        "cursor", "pass_no",
        "fetch_queue", "fetch_blocked_until", "fetch_gated_until",
        "fetch_line", "fetch_line_ready",
        "icount", "regs_held", "last_index",
        "runahead_trigger_ready", "runahead_trigger_index",
        "runahead_trigger_pass", "no_retrigger", "retrigger_stride",
        "arch_inv",
        "pending_l2_misses", "finished_passes",
        "data_base", "code_offset", "data_region",
        "pcs_off", "fetch_lines",
    )

    def __init__(self, tid: int, trace: Trace, rename: RenameState,
                 pass_shift: bool = True) -> None:
        self.tid = tid
        self.trace = trace
        self.rename = rename
        # Hot per-instruction fetch views (plain lists, shared per trace).
        (self.ops, self.dests, self.src1s, self.src2s,
         self.addrs, self.takens, self.pcs) = trace.hot_columns()
        self._pass_stride = PASS_STRIDE_BYTES if pass_shift else 0
        self.mode = ThreadMode.NORMAL
        self.stats = ThreadStats()

        self.cursor = 0
        self.pass_no = 0

        self.fetch_queue: Deque[DynInst] = deque()
        self.fetch_blocked_until = 0   # structural: redirects, i-cache miss
        self.fetch_gated_until = 0     # policy: STALL / DCRA / hill climbing
        self.fetch_line = -1
        self.fetch_line_ready = 0

        self.icount = 0                # instructions in pre-issue stages
        self.regs_held = [0, 0]        # INT, FP rename registers in use
        self.last_index = len(trace) - 1   # pass boundary (commit hot path)

        self.runahead_trigger_ready = -1
        self.runahead_trigger_index = -1
        self.runahead_trigger_pass = -1
        #: Dynamic loads barred from re-triggering runahead, keyed by
        #: ``pass_no * retrigger_stride + trace_index`` — a plain int
        #: instead of a (pass, index) tuple, so the membership test on
        #: the commit/skip hot paths allocates nothing.
        self.no_retrigger: Set[int] = set()
        self.retrigger_stride = len(trace)
        self.arch_inv = [False] * NUM_ARCH_REGS

        self.pending_l2_misses = 0
        self.finished_passes = 0

        self.data_base = DATA_BASE + tid * THREAD_DATA_SPACING
        self.code_offset = tid * THREAD_CODE_SPACING
        self.data_region = max(64, trace.data_region_bytes)

        #: Fetch address columns with the thread's code offset folded in,
        #: and the i-cache line index of each row.  Filled by the pipeline
        #: at construction (it owns the i-cache geometry); the fetch loop
        #: then subscripts instead of recomputing ``pc + offset`` and the
        #: line shift per instruction.
        self.pcs_off: List[int] = self.pcs
        self.fetch_lines: List[int] = []

    # --- trace-driven fetch -----------------------------------------------------

    @property
    def in_runahead(self) -> bool:
        return self.mode == ThreadMode.RUNAHEAD

    def next_inst(self, gseq: int) -> DynInst:
        """Materialize the next trace instruction at the fetch cursor."""
        index = self.cursor
        pass_no = self.pass_no
        # Positional DynInst construction: this is the hottest allocation
        # in the simulator (one per fetched instruction).
        inst = DynInst(
            self.tid, gseq, index, pass_no,
            self.ops[index], self.pcs[index] + self.code_offset, 0,
            self.dests[index], self.src1s[index], self.src2s[index],
            self.takens[index],
        )
        if inst.is_mem:
            # physical_addr(), inlined for the per-instruction hot path.
            inst.addr = self.data_base + (
                (self.addrs[index] + pass_no * self._pass_stride)
                % self.data_region)
        self.cursor += 1
        if self.cursor >= len(self.ops):
            self.cursor = 0
            self.pass_no = pass_no + 1
        return inst

    def physical_addr(self, trace_addr: int, pass_no: int) -> int:
        """Thread-private data address with the per-pass shift applied.

        The shift only applies to threads whose working set exceeds the L2
        (``pass_shift`` at construction): looping a big-working-set trace
        must keep touching fresh lines, while a cacheable benchmark's
        re-executions legitimately re-hit its resident footprint.
        """
        shifted = (trace_addr + pass_no * self._pass_stride) % self.data_region
        return self.data_base + shifted

    def rewind_to(self, trace_index: int, pass_no: int) -> None:
        """Redirect the fetch cursor (squash repair or runahead exit)."""
        self.cursor = trace_index
        self.pass_no = pass_no

    # --- gating ---------------------------------------------------------------------

    def can_fetch(self, now: int) -> bool:
        return (now >= self.fetch_blocked_until
                and now >= self.fetch_gated_until)

    def block_fetch_until(self, cycle: int) -> None:
        """Structural fetch block (redirect penalty, i-cache miss)."""
        if cycle > self.fetch_blocked_until:
            self.fetch_blocked_until = cycle

    def gate_fetch_until(self, cycle: int) -> None:
        """Policy-imposed fetch gate (STALL, DCRA, hill climbing)."""
        if cycle > self.fetch_gated_until:
            self.fetch_gated_until = cycle

    def ungate_fetch(self) -> None:
        self.fetch_gated_until = 0

    # --- runahead helpers --------------------------------------------------------------

    def note_arch_invalid(self, arch_reg: int, invalid: bool) -> None:
        """Track architectural-level INV state during runahead (§3.3).

        Set when a producer's register was reclaimed early (INV results
        are freed at pseudo-retire — "when a physical register is invalid
        this can be freed and used for the rest of the threads") or when
        an FP producer was dropped at decode; cleared when a renamed write
        supersedes it.  Consumers reading a flagged register fold at
        dispatch without waiting.
        """
        self.arch_inv[arch_reg] = invalid

    def arch_is_invalid(self, arch_reg: int) -> bool:
        if arch_reg == NO_REG:
            return False
        return self.arch_inv[arch_reg]

    def clear_arch_invalid(self) -> None:
        for index in range(NUM_ARCH_REGS):
            self.arch_inv[index] = False
