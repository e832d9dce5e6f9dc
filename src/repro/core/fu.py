"""Functional unit pools.

Table 1 specifies 6 INT, 3 FP and 4 load/store units.  Units are fully
pipelined, so a pool is simply a per-cycle issue budget (one instruction
can begin on each unit every cycle); multi-cycle latency is carried by the
instruction's completion event, not by unit occupancy.  (The paper does not
describe unpipelined units; FDIV being pipelined here is a documented
simplification shared equally by all policies.)
"""

from __future__ import annotations

from ..isa import FUKind


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
