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

    def is_full(self) -> bool:
        return self._occupancy >= self.capacity

    def append(self, inst: DynInst) -> None:
        """Enter a dispatched instruction at its thread's window tail
        (dispatch stalls on :meth:`is_full` first)."""
        self._queues[inst.tid].append(inst)
        self._occupancy += 1

    def pop_head(self, tid: int) -> DynInst:
        """Retire the thread's oldest instruction."""
        self._occupancy -= 1
        return self._queues[tid].popleft()

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

    def thread_window(self, tid: int) -> Iterable[DynInst]:
        """The thread's in-flight instructions, oldest first (read-only)."""
        return iter(self._queues[tid])

    def check_occupancy(self) -> None:
        total = sum(len(q) for q in self._queues)
        if total != self._occupancy:
            raise SimulationError(
                f"ROB occupancy counter {self._occupancy} != {total}")
