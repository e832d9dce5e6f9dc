"""Miss Status Holding Registers.

MSHRs track in-flight cache fills.  They serve two purposes in this
model:

1. **Timing of pending lines.**  Cache arrays are filled eagerly at miss
   time (a standard trace-simulator simplification), so the MSHR file is
   what makes a just-missed line *still cost* its full latency: any access
   to a line with an outstanding fill completes no earlier than the fill.
2. **Miss merging (MLP).**  Concurrent misses to one line collapse into a
   single fill — the mechanism by which runahead prefetches overlap many
   memory accesses instead of serializing them.

A demand load rejected by a full file is retried by the issue stage every
cycle until a fill completes and frees an entry.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple


class MSHRFile:
    """Outstanding-fill tracker with bounded capacity."""

    __slots__ = ("capacity", "_entries", "_release_heap", "allocations",
                 "merges", "rejects")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        #: line_addr -> (ready_cycle, fill_is_from_memory)
        self._entries: Dict[int, Tuple[int, bool]] = {}
        #: Lazily-pruned min-heap of (ready_cycle, line_addr) mirroring
        #: ``_entries``; stale pairs (entry dropped or re-allocated with a
        #: different ready cycle) are discarded by :meth:`expire`.
        self._release_heap: List[Tuple[int, int]] = []
        self.allocations = 0
        self.merges = 0
        self.rejects = 0

    def __len__(self) -> int:
        return len(self._entries)

    def expire(self, now: int) -> None:
        """Drop entries whose fill has completed.

        Driven by the release heap: every entry has a heap pair, so
        walking pairs with ``ready <= now`` visits every expirable entry
        (plus stale pairs, discarded in passing) — O(expired · log n)
        amortized instead of a scan of the whole file per call, which
        matters because ``allocate`` expires on every attempt against a
        full file.
        """
        heap = self._release_heap
        if not heap:
            return
        entries = self._entries
        while heap:
            ready, line = heap[0]
            if ready > now:
                break
            heapq.heappop(heap)
            entry = entries.get(line)
            if entry is not None and entry[0] == ready:
                del entries[line]

    def pending(self, line_addr: int, now: int) -> Optional[Tuple[int, bool]]:
        """If a fill for ``line_addr`` is outstanding, return
        (ready_cycle, from_memory); else None."""
        entry = self._entries.get(line_addr)
        if entry is None:
            return None
        ready, from_memory = entry
        if ready <= now:
            del self._entries[line_addr]
            return None
        self.merges += 1
        return entry

    def allocate(self, line_addr: int, ready_cycle: int,
                 from_memory: bool, now: int) -> bool:
        """Reserve an entry for a new fill; False if the file is full."""
        # Expire lazily: completed fills only need collecting when the
        # file looks full (pending() already drops them on access).
        if len(self._entries) >= self.capacity:
            self.expire(now)
            if len(self._entries) >= self.capacity:
                self.rejects += 1
                return False
        self.allocations += 1
        self._entries[line_addr] = (ready_cycle, from_memory)
        heapq.heappush(self._release_heap, (ready_cycle, line_addr))
        return True

    def force(self, line_addr: int, ready_cycle: int,
              from_memory: bool = True) -> None:
        """Register a fill past the capacity limit.

        Stores drain through a write buffer and are never rejected, so
        their fills must be trackable even when the file is full (the
        entry still merges later accesses and still expires through the
        release heap).
        """
        self._entries[line_addr] = (ready_cycle, from_memory)
        heapq.heappush(self._release_heap, (ready_cycle, line_addr))

    def outstanding_memory_fills(self, now: int) -> int:
        """Number of fills currently being served by main memory."""
        self.expire(now)
        return sum(1 for ready, from_memory in self._entries.values()
                   if from_memory and ready > now)
