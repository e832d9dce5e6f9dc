"""Shared reorder buffer.

The paper's machine uses a single 512-entry ROB shared by all threads
(Table 1, §4): a thread blocked on memory starves co-runners by *occupying*
entries, not by head-of-line blocking — each thread retires its own stream
in order.  This is modelled as one FIFO per thread plus a shared capacity
counter; a thread's occupancy is the length of its FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List

from ..errors import SimulationError
from .dyninst import DynInst


class SharedROB:
    """Per-thread in-order windows drawing from one shared entry pool."""

    __slots__ = ("capacity", "_queues", "_occupancy")

    def __init__(self, capacity: int, num_threads: int) -> None:
        if capacity < 1 or num_threads < 1:
            raise ValueError("capacity and num_threads must be >= 1")
        self.capacity = capacity
        self._queues: List[Deque[DynInst]] = [deque()
                                              for _ in range(num_threads)]
        self._occupancy = 0

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def free_entries(self) -> int:
        return self.capacity - self._occupancy

    def is_full(self) -> bool:
        return self._occupancy >= self.capacity

    def append(self, inst: DynInst) -> None:
        if self.is_full():
            raise SimulationError("ROB overflow")
        self._queues[inst.tid].append(inst)
        self._occupancy += 1

    def head(self, tid: int) -> DynInst:
        """Oldest un-retired instruction of a thread (raises if empty)."""
        return self._queues[tid][0]

    def is_empty(self, tid: int) -> bool:
        return not self._queues[tid]

    def pop_head(self, tid: int) -> DynInst:
        """Retire the thread's oldest instruction."""
        inst = self._queues[tid].popleft()
        self._occupancy -= 1
        return inst

    def squash_younger(self, tid: int, boundary_gseq: int) -> List[DynInst]:
        """Remove all of a thread's instructions younger than
        ``boundary_gseq`` (global fetch order, which orders each thread's
        own stream too).

        Returned youngest-first, which is the order squash repair must
        undo renames in.
        """
        queue = self._queues[tid]
        squashed: List[DynInst] = []
        while queue and queue[-1].gseq > boundary_gseq:
            squashed.append(queue.pop())
            self._occupancy -= 1
        return squashed

    def squash_all(self, tid: int) -> List[DynInst]:
        """Remove every instruction of a thread (runahead exit), youngest-first."""
        return self.squash_younger(tid, -1)

    def thread_window(self, tid: int) -> Iterable[DynInst]:
        """The thread's in-flight instructions, oldest first (read-only)."""
        return iter(self._queues[tid])

    def check_occupancy(self) -> None:
        total = sum(len(q) for q in self._queues)
        if total != self._occupancy:
            raise SimulationError(
                f"ROB occupancy counter {self._occupancy} != {total}")
