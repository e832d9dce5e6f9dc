"""Shared test/benchmark helpers: scaled-down configs and a trace DSL.

Both ``tests/`` and ``benchmarks/`` import from here (instead of from
their own ``conftest`` modules, whose bare-name imports collide when
pytest collects several rootdirs), so the two suites share one source of
truth and cannot drift.  Nothing here depends on pytest.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from .config import CacheConfig, SMTConfig
from .isa import NO_REG, OpClass
from .trace.trace import Trace

#: A miniature machine for fast unit tests: small caches (so misses are
#: easy to provoke) and short memory latency (so runahead episodes are
#: quick).  Warmup stays on so hand-built traces start with a warm I-cache
#: and trained predictor; their *data* stays cold (the selective warmup
#: only installs temporally re-touched lines, and hand traces touch each
#: data line once).
SMALL_CONFIG = SMTConfig(
    rob_size=64,
    int_regs=96,
    fp_regs=96,
    int_iq_size=16,
    fp_iq_size=16,
    ls_iq_size=16,
    fetch_buffer_size=16,
    icache=CacheConfig(4 * 1024, 2, 64, 1),
    dcache=CacheConfig(4 * 1024, 2, 64, 2),
    l2=CacheConfig(64 * 1024, 4, 64, 8),
    memory_latency=60,
    predictor_entries=64,
    predictor_history=8,
    btb_entries=64,
    warmup=True,
    max_cycles=500_000,
)


class TraceBuilder:
    """Hand-build tiny traces for targeted pipeline tests.

    Integer architectural registers are 0..31, FP are 32..63.  PCs are laid
    out sequentially from ``base_pc`` (4 bytes apart).
    """

    def __init__(self, name: str = "hand", base_pc: int = 0x1000,
                 data_region: int = 1 << 20) -> None:
        self.name = name
        self.base_pc = base_pc
        self.data_region = data_region
        self.rows: List[tuple] = []

    def _emit(self, op: OpClass, dest: int = NO_REG, src1: int = NO_REG,
              src2: int = NO_REG, addr: int = 0,
              taken: bool = False) -> "TraceBuilder":
        self.rows.append((int(op), dest, src1, src2, addr, taken))
        return self

    def ialu(self, dest: int, src1: int = NO_REG,
             src2: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.IALU, dest, src1, src2)

    def imul(self, dest: int, src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.IMUL, dest, src1)

    def load(self, dest: int, addr: int,
             src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.LOAD, dest, src1, NO_REG, addr)

    def store(self, addr: int, src1: int = NO_REG,
              src2: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.STORE, NO_REG, src1, src2, addr)

    def fload(self, dest: int, addr: int,
              src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.FLOAD, dest, src1, NO_REG, addr)

    def fstore(self, addr: int, src1: int = NO_REG,
               src2: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.FSTORE, NO_REG, src1, src2, addr)

    def fadd(self, dest: int, src1: int = NO_REG,
             src2: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.FADD, dest, src1, src2)

    def fdiv(self, dest: int, src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.FDIV, dest, src1)

    def branch(self, taken: bool = False,
               src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.BRANCH, NO_REG, src1, NO_REG, 0, taken)

    def sync(self, src1: int = NO_REG) -> "TraceBuilder":
        return self._emit(OpClass.SYNC, NO_REG, src1)

    def nops(self, count: int, start_reg: int = 1) -> "TraceBuilder":
        for offset in range(count):
            self.ialu(start_reg + (offset % 8))
        return self

    def build(self) -> Trace:
        count = len(self.rows)
        if count == 0:
            raise ValueError("empty trace")
        ops, dests, src1s, src2s, addrs, takens = zip(*self.rows)
        columns = {
            "op": ops, "dest": dests, "src1": src1s, "src2": src2s,
            "addr": addrs, "taken": takens,
            "pc": range(self.base_pc, self.base_pc + 4 * count, 4),
        }
        return Trace(self.name, columns,
                     data_region_bytes=self.data_region)


def make_processor(traces, config: Optional[SMTConfig] = None,
                   policy: str = "icount", **overrides):
    """Convenience constructor used across pipeline tests."""
    from .core.processor import SMTProcessor
    config = config or SMALL_CONFIG
    config = dataclasses.replace(config, policy=policy, **overrides)
    return SMTProcessor(config.validate(), traces)
