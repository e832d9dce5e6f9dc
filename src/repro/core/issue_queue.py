"""Issue queues with event-driven wakeup.

Each of the three queues (INT/FP/LS, Table 1) holds dispatched instructions
until their operands are ready.  Wakeup is event-driven: instructions with
outstanding sources register as waiters on the producing physical register,
and completion moves them to the queue's ready list — so per-cycle cost
scales with completions, not queue size.

Occupancy accounting is explicit (``size``): an instruction occupies its
queue entry from dispatch until it issues, folds, or is squashed — exactly
while ``DISPATCHED <= state <= READY``, so callers release the entry
before changing the state — and the counter is the resource the dispatch
stage and the DCRA/hill-climbing policies arbitrate over.

Readiness is also a *skip horizon*: :meth:`IssueQueue.next_ready_cycle`
tells the event-driven fast path whether the selection logic could issue
from this queue next cycle.  A demand load rejected by a full MSHR file
is put back on the ready list like any other entry and retried every
stepped cycle, so its replay window is stepped, not skipped.
"""

from __future__ import annotations

import operator
from typing import List, Optional

from ..errors import SimulationError
from .dyninst import DynInst, InstState

#: Hoisted members: these scans run per quiescence check / issue cycle.
_DISPATCHED = InstState.DISPATCHED
_READY = InstState.READY


class IssueQueue:
    """One issue queue: bounded occupancy plus a ready list."""

    __slots__ = ("name", "capacity", "size", "_ready", "per_thread")

    def __init__(self, name: str, capacity: int, num_threads: int) -> None:
        if capacity < 1:
            raise ValueError("issue queue capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.size = 0
        self._ready: List[DynInst] = []
        self.per_thread = [0] * num_threads

    def is_full(self) -> bool:
        return self.size >= self.capacity

    def insert(self, inst: DynInst) -> None:
        """Account a dispatched instruction's queue entry (dispatch
        stalls on :meth:`is_full` first)."""
        self.size += 1
        self.per_thread[inst.tid] += 1

    def remove(self, inst: DynInst) -> None:
        """Release an entry (issue, fold, or squash), before the state
        change: an instruction holds its entry while ``DISPATCHED <=
        state <= READY``."""
        if not _DISPATCHED <= inst.state <= _READY:
            return
        self.size -= 1
        self.per_thread[inst.tid] -= 1
        if self.size < 0:
            raise SimulationError(f"{self.name} issue queue underflow")

    def mark_ready(self, inst: DynInst) -> None:
        """All operands available, or a selected load rejected by a full
        MSHR file: eligible for selection."""
        self._ready.append(inst)

    def take_ready(self, limit: int) -> List[DynInst]:
        """Select up to ``limit`` ready instructions, oldest first.

        Squashed and folded entries are purged in passing.  Instructions
        not selected this cycle stay in the ready list.
        """
        ready = self._ready
        if not ready:
            return []
        # Clean scan first: the common case has no stale entries, and the
        # scan avoids the filtering list allocation (this runs for every
        # non-empty queue every stepped cycle).
        for inst in ready:
            if inst.state != _READY:
                live = [inst for inst in ready if inst.state == _READY]
                self._ready = live
                break
        else:
            live = ready
        if not live:
            return []
        if len(live) > limit:
            live.sort(key=_inst_age)
            selected = live[:limit]
            self._ready = live[limit:]
        else:
            selected = live
            self._ready = []
        return selected

    def next_ready_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle the selection logic could issue from this queue:
        ``now`` while a live ready entry waits (issue has work next
        cycle, so idle cycles cannot be jumped), else ``None`` — the
        queue wakes only through a completion event, already on the
        pipeline's event horizon.  A list holding only dead entries is
        dropped on the way.
        """
        ready = self._ready
        for inst in ready:
            if inst.state == _READY:
                return now
        ready.clear()
        return None

#: Global fetch order approximates true age across threads.
_inst_age = operator.attrgetter("gseq")
