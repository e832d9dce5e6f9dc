"""STALL long-latency handler (Tullsen & Brown, MICRO-34 [17]).

On detecting that a thread has a pending L2 miss, stop fetching from it
until the miss is serviced.  Allocated resources are *held* for the whole
memory latency — the under-utilization the paper criticizes (§2).
Priority among fetchable threads remains ICOUNT.
"""

from __future__ import annotations

from .icount import ICountPolicy


class StallPolicy(ICountPolicy):
    """ICOUNT + fetch-stall on L2 miss."""

    name = "stall"

    def on_l2_miss_detected(self, thread, inst, now: int) -> None:
        if inst.complete_cycle > now:
            thread.gate_fetch_until(inst.complete_cycle)
