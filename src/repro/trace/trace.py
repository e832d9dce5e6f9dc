"""Column-wise trace container.

A :class:`Trace` holds the dynamic instruction stream of one benchmark as
parallel numpy arrays.  The simulator's fetch stage reads the columns
directly (integer indexing into numpy arrays is cheap); everything else can
use :meth:`Trace.instruction` for a friendly row view.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..errors import TraceError
from ..isa import NO_REG, NUM_ARCH_REGS, OpClass
from .instruction import TraceInstruction

#: numpy dtypes for each trace column.
_COLUMNS = {
    "op": np.int8,
    "dest": np.int16,
    "src1": np.int16,
    "src2": np.int16,
    "addr": np.int64,
    "taken": np.bool_,
    "pc": np.int64,
}


class Trace:
    """An immutable dynamic instruction trace for one benchmark.

    Attributes:
        name: Benchmark name the trace was generated from.
        op, dest, src1, src2, addr, taken, pc: Parallel numpy columns.
        data_region_bytes: Span of the data segment addressed by ``addr``.
            The runtime shifts addresses by a per-pass offset within this
            region when the trace is re-executed (FAME looping), so large
            working sets keep missing in L2 across passes instead of being
            artificially cached by trace reuse.
    """

    __slots__ = ("name", "op", "dest", "src1", "src2", "addr", "taken",
                 "pc", "data_region_bytes", "_length", "_hot_columns")

    def __init__(self, name: str, columns: Dict[str, np.ndarray],
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
        for key, dtype in _COLUMNS.items():
            array = np.asarray(columns[key], dtype=dtype)
            array.setflags(write=False)
            setattr(self, key, array)
        self._hot_columns = None

    def __len__(self) -> int:
        return self._length

    def __reduce__(self):
        # Pickle as (name, columns, region): campaigns ship traces to
        # pool workers, and the cached hot-column lists must not travel
        # (each process rebuilds them lazily, far cheaper than the
        # serialized bytes).
        return (Trace,
                (self.name,
                 {key: getattr(self, key) for key in _COLUMNS},
                 self.data_region_bytes))

    def hot_columns(self):
        """The columns as plain Python lists, in ``_COLUMNS`` order.

        The fetch stage materializes one :class:`DynInst` per dynamic
        instruction; indexing numpy arrays there would box a numpy
        scalar per field per instruction.  The converted lists are
        cached on the trace, so every thread (and every FAME pass)
        shares one conversion.
        """
        if self._hot_columns is None:
            self._hot_columns = tuple(
                getattr(self, key).tolist() for key in _COLUMNS)
        return self._hot_columns

    def instruction(self, index: int) -> TraceInstruction:
        """Row view of instruction ``index`` (supports negative indices)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return TraceInstruction(
            index=index,
            pc=int(self.pc[index]),
            op=OpClass(int(self.op[index])),
            dest=int(self.dest[index]),
            src1=int(self.src1[index]),
            src2=int(self.src2[index]),
            addr=int(self.addr[index]),
            taken=bool(self.taken[index]),
        )

    def __iter__(self) -> Iterator[TraceInstruction]:
        for index in range(self._length):
            yield self.instruction(index)

    # --- summary statistics -------------------------------------------------

    def mix(self) -> Dict[str, float]:
        """Fraction of instructions per broad category."""
        ops = self.op
        total = max(1, len(self))
        loads = np.isin(ops, (int(OpClass.LOAD), int(OpClass.FLOAD)))
        stores = np.isin(ops, (int(OpClass.STORE), int(OpClass.FSTORE)))
        branches = ops == int(OpClass.BRANCH)
        fp = np.isin(ops, (int(OpClass.FADD), int(OpClass.FMUL),
                           int(OpClass.FDIV)))
        return {
            "load": float(loads.sum()) / total,
            "store": float(stores.sum()) / total,
            "branch": float(branches.sum()) / total,
            "fp": float(fp.sum()) / total,
            "other": float(total - loads.sum() - stores.sum()
                           - branches.sum() - fp.sum()) / total,
        }

    def code_footprint_bytes(self) -> int:
        """Span of distinct instruction addresses touched by the trace."""
        if len(self) == 0:
            return 0
        unique_pcs = np.unique(self.pc)
        return int(len(unique_pcs)) * 4

    def data_footprint_bytes(self, line_bytes: int = 64) -> int:
        """Number of distinct data cache lines touched, in bytes."""
        mem_mask = np.isin(self.op, (int(OpClass.LOAD), int(OpClass.STORE),
                                     int(OpClass.FLOAD), int(OpClass.FSTORE)))
        if not mem_mask.any():
            return 0
        lines = np.unique(self.addr[mem_mask] // line_bytes)
        return int(len(lines)) * line_bytes

    def validate(self) -> "Trace":
        """Check structural well-formedness; returns self.

        Raises:
            TraceError: if any column holds an out-of-range value.
        """
        ops = self.op
        valid_ops = {int(op) for op in OpClass}
        present = set(np.unique(ops).tolist())
        if not present <= valid_ops:
            raise TraceError(f"trace {self.name!r}: invalid op codes "
                             f"{sorted(present - valid_ops)}")
        for column_name in ("dest", "src1", "src2"):
            column = getattr(self, column_name)
            bad = (column != NO_REG) & ((column < 0) |
                                        (column >= NUM_ARCH_REGS))
            if bad.any():
                raise TraceError(
                    f"trace {self.name!r}: {column_name} out of range at "
                    f"index {int(np.argmax(bad))}")
        mem_mask = np.isin(ops, (int(OpClass.LOAD), int(OpClass.STORE),
                                 int(OpClass.FLOAD), int(OpClass.FSTORE)))
        if (self.addr[mem_mask] < 0).any():
            raise TraceError(f"trace {self.name!r}: negative data address")
        if (np.diff(self.pc) == 0).any():
            raise TraceError(f"trace {self.name!r}: consecutive identical PCs")
        return self
