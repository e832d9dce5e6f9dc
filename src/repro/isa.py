"""Alpha-like ISA abstractions used by the trace generator and the core.

The simulator is trace-driven: values are never computed, so the ISA layer
only needs *structural* information about instructions — operation class,
register operands, memory behaviour, and execution latency.

Register namespace
------------------
Architectural registers are numbered ``0..63``: integer registers occupy
``0..31`` and floating-point registers occupy ``32..63`` (mirroring the
Alpha's 32+32 split used in the paper's register-file discussion, §6.2).
``NO_REG`` (-1) marks an absent operand.
"""

from __future__ import annotations

import enum

NUM_INT_ARCH_REGS = 32
NUM_FP_ARCH_REGS = 32
NUM_ARCH_REGS = NUM_INT_ARCH_REGS + NUM_FP_ARCH_REGS

#: Sentinel for "no register operand".
NO_REG = -1

#: Bytes per instruction (Alpha fixed 4-byte encoding); used to lay out
#: synthetic code so that the I-cache sees realistic spatial locality.
INSTRUCTION_BYTES = 4


class RegClass(enum.IntEnum):
    """Which physical register file a register name lives in."""

    INT = 0
    FP = 1


def reg_class(arch_reg: int) -> RegClass:
    """Return the register class of an architectural register number."""
    return RegClass.INT if arch_reg < NUM_INT_ARCH_REGS else RegClass.FP


class OpClass(enum.IntEnum):
    """Operation classes, each mapped to an issue queue and a FU pool.

    The split mirrors the paper's Table 1 (INT/FP/LS issue queues and
    INT/FP/LdSt functional units).
    """

    IALU = 0     # integer add/sub/logic/shift
    IMUL = 1     # integer multiply
    FADD = 2     # FP add/sub/compare/convert
    FMUL = 3     # FP multiply
    FDIV = 4     # FP divide / sqrt (long latency, unpipelined)
    LOAD = 5     # integer load
    STORE = 6    # integer store
    FLOAD = 7    # FP load (address computed in integer pipeline)
    FSTORE = 8   # FP store
    BRANCH = 9   # conditional/unconditional control flow
    NOP = 10     # no-op / ignorable system instruction
    SYNC = 11    # synchronization op (acquire/release); ignored in runahead


#: Execution latency in cycles for each op class, once issued to a FU.
#: Loads/stores add memory latency on top (the 3-cycle D-cache latency of
#: Table 1 is modelled in the memory hierarchy, not here).
OP_LATENCY = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.FADD: 2,
    OpClass.FMUL: 4,
    OpClass.FDIV: 12,
    OpClass.LOAD: 0,
    OpClass.STORE: 0,
    OpClass.FLOAD: 0,
    OpClass.FSTORE: 0,
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
    OpClass.SYNC: 1,
}

#: Op classes that access data memory.
MEMORY_OPS = frozenset(
    (OpClass.LOAD, OpClass.STORE, OpClass.FLOAD, OpClass.FSTORE)
)

#: Op classes that read data memory.
LOAD_OPS = frozenset((OpClass.LOAD, OpClass.FLOAD))

#: Op classes that write data memory.
STORE_OPS = frozenset((OpClass.STORE, OpClass.FSTORE))

#: Op classes that execute in the FP pipeline.  FP loads/stores are *not*
#: included: their effective address is computed in the integer pipeline
#: (paper §3.3, "Floating-point resources").
FP_OPS = frozenset((OpClass.FADD, OpClass.FMUL, OpClass.FDIV))

class IssueQueueKind(enum.IntEnum):
    """The three issue queues of Table 1."""

    INT = 0
    FP = 1
    LS = 2


#: Which issue queue each op class dispatches into.
OP_QUEUE = {
    OpClass.IALU: IssueQueueKind.INT,
    OpClass.IMUL: IssueQueueKind.INT,
    OpClass.FADD: IssueQueueKind.FP,
    OpClass.FMUL: IssueQueueKind.FP,
    OpClass.FDIV: IssueQueueKind.FP,
    OpClass.LOAD: IssueQueueKind.LS,
    OpClass.STORE: IssueQueueKind.LS,
    OpClass.FLOAD: IssueQueueKind.LS,
    OpClass.FSTORE: IssueQueueKind.LS,
    OpClass.BRANCH: IssueQueueKind.INT,
    OpClass.NOP: IssueQueueKind.INT,
    OpClass.SYNC: IssueQueueKind.INT,
}


class FUKind(enum.IntEnum):
    """Functional unit pools of Table 1 (6 INT / 3 FP / 4 LdSt)."""

    INT = 0
    FP = 1
    LDST = 2


#: Which FU pool executes each op class.
OP_FU = {
    OpClass.IALU: FUKind.INT,
    OpClass.IMUL: FUKind.INT,
    OpClass.FADD: FUKind.FP,
    OpClass.FMUL: FUKind.FP,
    OpClass.FDIV: FUKind.FP,
    OpClass.LOAD: FUKind.LDST,
    OpClass.STORE: FUKind.LDST,
    OpClass.FLOAD: FUKind.LDST,
    OpClass.FSTORE: FUKind.LDST,
    OpClass.BRANCH: FUKind.INT,
    OpClass.NOP: FUKind.INT,
    OpClass.SYNC: FUKind.INT,
}


# --- hot-path lookup tables -------------------------------------------------
#
# The pipeline touches these once or more per dynamic instruction.  The
# dict-of-enum tables above are the readable source of truth; the tuples
# below are the same data indexed by the raw integer op code, so the hot
# loops never construct an OpClass (enum __call__ is ~10x a tuple index).

#: OP_LATENCY indexed by ``int(op)``.
OP_LATENCY_BY_CODE = tuple(OP_LATENCY[OpClass(code)]
                           for code in range(len(OpClass)))

#: OP_QUEUE indexed by ``int(op)`` (values are plain ints).
OP_QUEUE_BY_CODE = tuple(int(OP_QUEUE[OpClass(code)])
                         for code in range(len(OpClass)))

#: OP_FU indexed by ``int(op)`` (values are plain ints).
OP_FU_BY_CODE = tuple(int(OP_FU[OpClass(code)])
                      for code in range(len(OpClass)))

#: Per-code membership flags for the frozensets above.
IS_LOAD_BY_CODE = tuple(OpClass(code) in LOAD_OPS
                        for code in range(len(OpClass)))
IS_STORE_BY_CODE = tuple(OpClass(code) in STORE_OPS
                         for code in range(len(OpClass)))
IS_MEM_BY_CODE = tuple(OpClass(code) in MEMORY_OPS
                       for code in range(len(OpClass)))
IS_FP_BY_CODE = tuple(OpClass(code) in FP_OPS
                      for code in range(len(OpClass)))
IS_BRANCH_BY_CODE = tuple(OpClass(code) is OpClass.BRANCH
                          for code in range(len(OpClass)))


def is_memory_op(op: OpClass) -> bool:
    """True if ``op`` accesses data memory."""
    return op in MEMORY_OPS


def is_load(op: OpClass) -> bool:
    """True if ``op`` reads data memory."""
    return op in LOAD_OPS


def is_store(op: OpClass) -> bool:
    """True if ``op`` writes data memory."""
    return op in STORE_OPS


def is_fp_op(op: OpClass) -> bool:
    """True if ``op`` executes in the FP pipeline (excludes FP loads/stores)."""
    return op in FP_OPS
