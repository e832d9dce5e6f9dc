"""A single decoded trace record.

Traces are stored column-wise as tuples of ints (see
:class:`repro.trace.trace.Trace`); :class:`TraceInstruction` is the row
view used at package boundaries — tests, examples, and debugging — not in
the simulator's hot path.
"""

from __future__ import annotations

import dataclasses

from ..isa import NO_REG, OpClass


@dataclasses.dataclass(frozen=True)
class TraceInstruction:
    """One dynamic instruction of a synthetic benchmark trace.

    Attributes:
        index: Position in the dynamic trace.
        pc: Instruction address (synthetic code segment).
        op: Operation class.
        dest: Destination architectural register, or ``NO_REG``.
        src1: First source architectural register, or ``NO_REG``.
        src2: Second source architectural register, or ``NO_REG``.
        addr: Effective data address for memory operations, else 0.
        taken: For branches, whether the branch is taken.
    """

    index: int
    pc: int
    op: OpClass
    dest: int = NO_REG
    src1: int = NO_REG
    src2: int = NO_REG
    addr: int = 0
    taken: bool = False

    @property
    def is_memory(self) -> bool:
        return self.op in (OpClass.LOAD, OpClass.STORE,
                           OpClass.FLOAD, OpClass.FSTORE)

    @property
    def is_load(self) -> bool:
        return self.op in (OpClass.LOAD, OpClass.FLOAD)

    @property
    def is_store(self) -> bool:
        return self.op in (OpClass.STORE, OpClass.FSTORE)

    @property
    def is_branch(self) -> bool:
        return self.op is OpClass.BRANCH

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        fields = [f"#{self.index}", f"pc={self.pc:#x}", self.op.name]
        if self.dest != NO_REG:
            fields.append(f"d=r{self.dest}")
        if self.src1 != NO_REG:
            fields.append(f"s1=r{self.src1}")
        if self.src2 != NO_REG:
            fields.append(f"s2=r{self.src2}")
        if self.is_memory:
            fields.append(f"addr={self.addr:#x}")
        if self.is_branch:
            fields.append("taken" if self.taken else "not-taken")
        return " ".join(fields)
