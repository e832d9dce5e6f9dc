"""Functional unit pools.

Table 1 specifies 6 INT, 3 FP and 4 load/store units.  Units are fully
pipelined, so a pool is simply a per-cycle issue budget (one instruction
can begin on each unit every cycle); multi-cycle latency is carried by the
instruction's completion event, not by unit occupancy.  (The paper does not
describe unpipelined units; FDIV being pipelined here is a documented
simplification shared equally by all policies.)
"""

from __future__ import annotations

from ..isa import FUKind, OP_FU_BY_CODE


class FUPool:
    """Per-cycle issue budgets for the three unit kinds."""

    __slots__ = ("_capacity", "_available")

    def __init__(self, int_units: int, fp_units: int, ldst_units: int) -> None:
        if min(int_units, fp_units, ldst_units) < 1:
            raise ValueError("each FU pool needs at least one unit")
        self._capacity = [0, 0, 0]
        self._capacity[FUKind.INT] = int_units
        self._capacity[FUKind.FP] = fp_units
        self._capacity[FUKind.LDST] = ldst_units
        self._available = list(self._capacity)

    def new_cycle(self) -> None:
        """Refresh budgets at the start of a cycle."""
        self._available[0] = self._capacity[0]
        self._available[1] = self._capacity[1]
        self._available[2] = self._capacity[2]

    def capacity(self, kind: FUKind) -> int:
        return self._capacity[kind]

    def available(self, kind: FUKind) -> int:
        return self._available[kind]

    def acquire(self, op: int) -> bool:
        """Claim a unit for this cycle; False if the pool is exhausted."""
        kind = OP_FU_BY_CODE[op]
        if self._available[kind] <= 0:
            return False
        self._available[kind] -= 1
        return True

    def next_release_cycle(self, now: int) -> int:
        """Earliest future cycle at which a unit becomes available.

        Part of the per-structure skip-horizon contract (see
        :meth:`SMTPipeline._skip_target
        <repro.core.pipeline.SMTPipeline._skip_target>`).  Units are
        fully pipelined, so every budget refreshes at the next cycle
        boundary: a pool can never stall the machine across more than
        one cycle.  An instruction starved by an exhausted pool implies
        another instruction issued this cycle, which already pins the
        skip target via the activity precheck — so this horizon never
        constrains a quiescent window in practice; it exists so the
        contract is stated by the structure that owns it rather than
        assumed by the pipeline.
        """
        return now + 1
