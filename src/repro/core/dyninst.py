"""Dynamic (in-flight) instruction state.

A :class:`DynInst` is created at fetch from one trace row and carries all
per-instance pipeline state: renamed operands, readiness, validity (the INV
bit of runahead execution), and lifecycle bookkeeping.  These objects are
the hot allocation of the simulator, hence ``__slots__`` and plain
attributes throughout.  Membership facts that ``state`` already decides
are not stored: an instruction holds its ICOUNT slot while ``state <=
READY`` and its issue-queue entry while ``DISPATCHED <= state <= READY``.
The derived kernels build each instance in place from ``__init__``'s
source (see :mod:`repro.core.kernel_gen`), so ``__init__`` stays a flat
list of stores with no ``return``.
"""

from __future__ import annotations

import enum

from ..isa import (
    IS_BRANCH_BY_CODE,
    IS_LOAD_BY_CODE,
    IS_MEM_BY_CODE,
    IS_STORE_BY_CODE,
    NO_REG,
    OpClass,
)


class InstState(enum.IntEnum):
    """Lifecycle of a dynamic instruction."""

    FETCHED = 0      # waiting in the per-thread fetch queue
    DISPATCHED = 1   # renamed, in ROB; waiting for operands in an IQ
    READY = 2        # all operands available; eligible for issue
    ISSUED = 3       # executing on a functional unit / memory access
    COMPLETED = 4    # result produced (possibly invalid)
    RETIRED = 5      # committed (normal) or pseudo-retired (runahead)
    SQUASHED = 6     # cancelled by misprediction, flush, or runahead exit


#: Hoisted member: an enum attribute load costs ~10x a global load, and
#: ``__init__`` runs once per fetched instruction.
_FETCHED = InstState.FETCHED

#: (is_load, is_store, is_mem, is_branch) per op code — a single
#: index + unpack in the constructor instead of four table reads.
_OP_FLAGS = tuple(
    (IS_LOAD_BY_CODE[code], IS_STORE_BY_CODE[code], IS_MEM_BY_CODE[code],
     IS_BRANCH_BY_CODE[code])
    for code in range(len(IS_LOAD_BY_CODE)))


class DynInst:
    """One in-flight instruction instance."""

    __slots__ = (
        "tid", "gseq", "trace_index", "pass_no",
        "op", "pc", "addr",
        "dest_arch", "src1_arch", "src2_arch",
        "pdest", "psrc1", "psrc2", "old_pdest",
        "state", "invalid",
        "pending_srcs", "l2_counted",
        "src_inv_mask",
        "complete_cycle", "l2_miss", "mispredicted", "taken",
        "is_load", "is_store", "is_mem", "is_branch",
    )

    def __init__(self, tid: int, gseq: int, trace_index: int, pass_no: int,
                 op: int, pc: int, addr: int, dest_arch: int,
                 src1_arch: int, src2_arch: int, taken: bool) -> None:
        self.tid = tid
        self.gseq = gseq   # global fetch order: age, and per-thread order
        self.trace_index = trace_index
        self.pass_no = pass_no
        self.op = op
        self.pc = pc
        self.addr = addr
        self.dest_arch = dest_arch
        self.src1_arch = src1_arch
        self.src2_arch = src2_arch
        self.taken = taken

        self.pdest = NO_REG
        self.psrc1 = NO_REG
        self.psrc2 = NO_REG
        self.old_pdest = NO_REG

        self.state = _FETCHED
        self.invalid = False        # runahead INV bit of the *result*
        self.pending_srcs = 0
        self.l2_counted = False     # contributes to pending_l2_misses
        self.src_inv_mask = 0       # bit0/bit1: src1/src2 known-INV at dispatch
        self.complete_cycle = -1
        self.l2_miss = False        # detected long-latency (L2) miss
        self.mispredicted = False

        (self.is_load, self.is_store, self.is_mem,
         self.is_branch) = _OP_FLAGS[op]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DynInst t{self.tid} #{self.gseq} {OpClass(self.op).name} "
                f"idx={self.trace_index} {InstState(self.state).name}"
                f"{' INV' if self.invalid else ''}>")
