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
from this queue next cycle, or whether every ready entry is a demand load
replaying against a full MSHR file — in which case the queue wakes no
earlier than the memory system's next fill (see
:meth:`~repro.mem.hierarchy.MemoryHierarchy.next_fill_cycle`).  The
replay population is tracked incrementally at requeue/selection/removal
time (``_replay_blocked``), not by scanning the ready list.
"""

from __future__ import annotations

import operator
from typing import List, Optional

from ..errors import SimulationError
from .dyninst import DynInst, InstState

#: Hoisted members: these scans run per quiescence check / issue cycle.
_DISPATCHED = InstState.DISPATCHED
_READY = InstState.READY

#: Sentinel returned by :meth:`IssueQueue.next_ready_cycle` when every
#: live ready entry is a memory-replay load: the wakeup cycle is owned by
#: the MSHR file, not the queue.
MEMORY_WAIT = -1


class IssueQueue:
    """One issue queue: bounded occupancy plus a ready list."""

    __slots__ = ("name", "capacity", "size", "_ready", "_replay_blocked",
                 "per_thread")

    def __init__(self, name: str, capacity: int, num_threads: int) -> None:
        if capacity < 1:
            raise ValueError("issue queue capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.size = 0
        self._ready: List[DynInst] = []
        self._replay_blocked = 0   # live ready entries deferred on the MSHRs
        self.per_thread = [0] * num_threads

    @property
    def free_entries(self) -> int:
        return self.capacity - self.size

    def is_full(self) -> bool:
        return self.size >= self.capacity

    def insert(self, inst: DynInst) -> None:
        """Account a dispatched instruction's queue entry."""
        if self.is_full():
            raise SimulationError(f"{self.name} issue queue overflow")
        self.size += 1
        self.per_thread[inst.tid] += 1

    def remove(self, inst: DynInst) -> None:
        """Release an entry (issue, fold, or squash), before the state
        change: an instruction holds its entry while ``DISPATCHED <=
        state <= READY``."""
        if inst.replay:
            inst.replay = False
            self._replay_blocked -= 1
        if not _DISPATCHED <= inst.state <= _READY:
            return
        self.size -= 1
        self.per_thread[inst.tid] -= 1
        if self.size < 0:
            raise SimulationError(f"{self.name} issue queue underflow")

    def mark_ready(self, inst: DynInst) -> None:
        """All operands available: eligible for selection."""
        self._ready.append(inst)

    def take_ready(self, limit: int) -> List[DynInst]:
        """Select up to ``limit`` ready instructions, oldest first.

        Squashed and folded entries are purged in passing.  Instructions
        not selected this cycle stay in the ready list.  Selected replay
        loads shed their deferred status — the issue stage is about to
        attempt them again, and re-defers via :meth:`requeue` on failure.
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
        if self._replay_blocked:
            for inst in selected:
                if inst.replay:
                    inst.replay = False
                    self._replay_blocked -= 1
        return selected

    def requeue(self, inst: DynInst, replay: bool = False) -> None:
        """Put an instruction back after a failed issue attempt.

        ``replay`` marks a demand load rejected by a full MSHR file: it
        stays ready and retries every stepped cycle, but cannot possibly
        issue before the memory system releases an entry, so it does not
        pin the cycle-skipping fast path the way ordinary ready entries
        do (see :meth:`next_ready_cycle`).
        """
        self._ready.append(inst)
        if replay and not inst.replay:
            inst.replay = True
            self._replay_blocked += 1

    def has_ready(self) -> bool:
        """Any entry currently issueable?

        Used by the cycle-skipping fast path after every stepped cycle:
        a live ready entry means next cycle's issue stage has work, so
        idle cycles cannot be jumped over.  Allocation-free on purpose —
        a busy machine calls this every cycle and bails on the first
        live entry; a fully-stale list (everything squashed or folded)
        is cleared in passing.
        """
        ready = self._ready
        if not ready:
            return False
        for inst in ready:
            if inst.state == _READY:
                return True
        ready.clear()
        return False

    def next_ready_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle the selection logic could issue from this queue.

        * ``None`` — no live ready entry; the queue wakes only through a
          completion event (already on the pipeline's event horizon).
        * ``now`` — a live, non-deferred entry is ready: issue has work
          next cycle, so idle cycles cannot be jumped.
        * :data:`MEMORY_WAIT` — every live ready entry is a demand load
          replaying against a full MSHR file; the true wakeup cycle is
          the memory system's next fill, which the caller must fold in
          (the queue cannot know it).

        The common busy case exits on the first live non-replay entry,
        exactly like :meth:`has_ready`; the deferred verdict is O(1) via
        the incrementally-maintained ``_replay_blocked`` count.
        """
        ready = self._ready
        if not ready:
            return None
        for inst in ready:
            if inst.state == _READY and not inst.replay:
                return now
        # No live non-replay entry.  Any live entries left are exactly
        # the deferred replays (remove() strips the flag from squashed
        # and folded instructions, so the count tracks live ones only).
        if self._replay_blocked:
            return MEMORY_WAIT
        ready.clear()
        return None

    def ready_count(self) -> int:
        return sum(1 for inst in self._ready
                   if inst.state == _READY)


#: Global fetch order approximates true age across threads.
_inst_age = operator.attrgetter("gseq")
