"""Branch target buffer.

Targets themselves come from the trace (the simulator always knows where
the thread goes next); the BTB models only the *timing* cost of target
misses: a taken branch whose PC is absent from the BTB redirects fetch one
cycle late.  Capacity pressure therefore penalizes benchmarks with large
branch footprints (gcc, vortex, perl) without affecting tight loops.
"""

from __future__ import annotations

from collections import OrderedDict


class BranchTargetBuffer:
    """Fully-tagged BTB with LRU replacement over a bounded entry count."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("BTB capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def lookup_and_insert(self, pc: int) -> bool:
        """Probe the BTB for a taken branch at ``pc``; insert on miss.

        Returns True on hit (no redirect bubble).
        """
        if pc in self._entries:
            self._entries.move_to_end(pc)
            return True
        self._entries[pc] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def __len__(self) -> int:
        return len(self._entries)
