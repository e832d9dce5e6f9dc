"""Column-wise trace container.

A :class:`Trace` holds the dynamic instruction stream of one benchmark as
parallel tuples of Python ints, one per column.  Every thread running the
trace binds those same tuples and the simulator's fetch stage subscripts
them directly; everything else can use :meth:`Trace.instruction` for a
friendly row view.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import eq
from typing import Dict, Iterator, Sequence

from ..errors import TraceError
from ..isa import IS_MEM_BY_CODE, NO_REG, NUM_ARCH_REGS, OpClass
from .instruction import TraceInstruction

#: The trace columns, in row order.
_COLUMNS = ("op", "dest", "src1", "src2", "addr", "taken", "pc")


class Trace:
    """An immutable dynamic instruction trace for one benchmark.

    Attributes:
        name: Benchmark name the trace was generated from.
        op, dest, src1, src2, addr, taken, pc: Parallel tuples of Python
            ints (bools for ``taken``).
        data_region_bytes: Span of the data segment addressed by ``addr``.
            The runtime shifts addresses by a per-pass offset within this
            region when the trace is re-executed (FAME looping), so large
            working sets keep missing in L2 across passes instead of being
            artificially cached by trace reuse.
    """

    __slots__ = ("name", "op", "dest", "src1", "src2", "addr", "taken",
                 "pc", "data_region_bytes", "_length")

    def __init__(self, name: str, columns: Dict[str, Sequence[int]],
                 data_region_bytes: int = 0) -> None:
        missing = set(_COLUMNS) - set(columns)
        if missing:
            raise TraceError(f"trace {name!r} missing columns: {sorted(missing)}")
        lengths = {key: len(value) for key, value in columns.items()}
        if len(set(lengths.values())) != 1:
            raise TraceError(f"trace {name!r} has ragged columns: {lengths}")
        self.name = name
        self.data_region_bytes = int(data_region_bytes)
        self._length = next(iter(lengths.values()))
        for key in _COLUMNS:
            setattr(self, key, tuple(columns[key]))

    def __len__(self) -> int:
        return self._length

    def instruction(self, index: int) -> TraceInstruction:
        """Row view of instruction ``index`` (supports negative indices)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return TraceInstruction(
            index=index,
            pc=self.pc[index],
            op=OpClass(self.op[index]),
            dest=self.dest[index],
            src1=self.src1[index],
            src2=self.src2[index],
            addr=self.addr[index],
            taken=self.taken[index],
        )

    def __iter__(self) -> Iterator[TraceInstruction]:
        for index in range(self._length):
            yield self.instruction(index)

    # --- summary statistics -------------------------------------------------

    def mix(self) -> Dict[str, float]:
        """Fraction of instructions per broad category."""
        counts = Counter(self.op)
        total = max(1, len(self))
        loads = counts[OpClass.LOAD] + counts[OpClass.FLOAD]
        stores = counts[OpClass.STORE] + counts[OpClass.FSTORE]
        branches = counts[OpClass.BRANCH]
        fp = (counts[OpClass.FADD] + counts[OpClass.FMUL]
              + counts[OpClass.FDIV])
        return {
            "load": loads / total,
            "store": stores / total,
            "branch": branches / total,
            "fp": fp / total,
            "other": (total - loads - stores - branches - fp) / total,
        }

    def validate(self) -> "Trace":
        """Check structural well-formedness; returns self.

        Each check runs at C level over a whole column; the failing row
        is looked for only once a check has failed.

        Raises:
            TraceError: if any column holds an out-of-range value.
        """
        ops = self.op
        valid_ops = {int(op) for op in OpClass}
        present = set(ops)
        if not present <= valid_ops:
            raise TraceError(f"trace {self.name!r}: invalid op codes "
                             f"{sorted(present - valid_ops)}")
        for column_name in ("dest", "src1", "src2"):
            column = getattr(self, column_name)
            # NO_REG is the only valid negative register number.
            if (min(column, default=NO_REG) < NO_REG
                    or max(column, default=NO_REG) >= NUM_ARCH_REGS):
                index = next(index for index, reg in enumerate(column)
                             if reg != NO_REG
                             and not 0 <= reg < NUM_ARCH_REGS)
                raise TraceError(
                    f"trace {self.name!r}: {column_name} out of range at "
                    f"index {index}")
        if min(self.addr, default=0) < 0 and any(
                addr < 0 and IS_MEM_BY_CODE[op]
                for op, addr in zip(ops, self.addr)):
            raise TraceError(f"trace {self.name!r}: negative data address")
        pcs = self.pc
        if any(map(eq, pcs, islice(pcs, 1, None))):
            raise TraceError(f"trace {self.name!r}: consecutive identical PCs")
        return self
