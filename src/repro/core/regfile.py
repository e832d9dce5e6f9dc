"""Shared physical register file with renaming support.

One :class:`PhysRegFile` instance exists per register class (INT, FP).  It
tracks, per physical register:

* the free list (allocation/release),
* the cycle at which the value becomes available (``ready``),
* the runahead INV bit (validity of the value, §3.2),
* a pin flag protecting checkpointed architectural state during runahead
  (a pinned register is never recycled until its thread's checkpoint is
  released), and
* the waiter list used for event-driven wakeup of dependent instructions.

The conservation invariant — every register is either free or allocated,
never both, and no free register is pinned — is cheap to check and
exercised heavily by the test suite.

Allocation writes only ``ready`` (to :data:`NEVER`): the INV bit is read
only once ``ready <= now``, and every write that lowers ``ready`` also
writes ``inv``; a free register is never pinned, since release refuses
pinned registers.
"""

from __future__ import annotations

from typing import List

from ..errors import SimulationError
from .dyninst import DynInst

#: Sentinel ready-cycle for "value not yet produced".
NEVER = 1 << 60


class PhysRegFile:
    """A pool of physical registers of one class."""

    __slots__ = ("size", "name", "_free", "_allocated", "ready", "inv",
                 "pinned", "waiters")

    def __init__(self, name: str, size: int) -> None:
        if size < 1:
            raise ValueError("register file size must be >= 1")
        self.name = name
        self.size = size
        self._free: List[int] = list(range(size - 1, -1, -1))
        self._allocated = [False] * size
        self.ready = [0] * size
        self.inv = [False] * size
        self.pinned = [False] * size
        self.waiters: List[List[DynInst]] = [[] for _ in range(size)]

    # --- allocation --------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def allocated_count(self) -> int:
        return self.size - len(self._free)

    def alloc(self) -> int:
        """Allocate a register; -1 if none are free."""
        free = self._free
        if not free:
            return -1
        preg = free.pop()
        self._allocated[preg] = True
        self.ready[preg] = NEVER
        return preg

    def release(self, preg: int) -> None:
        """Return a register to the free list.

        Pinned registers must be unpinned first; releasing a free register
        is an internal invariant violation and raises.
        """
        if not self._allocated[preg]:
            raise SimulationError(
                f"{self.name}: double release of p{preg}")
        if self.pinned[preg]:
            raise SimulationError(
                f"{self.name}: releasing pinned register p{preg}")
        self._allocated[preg] = False
        self.waiters[preg].clear()
        self._free.append(preg)

    def is_allocated(self, preg: int) -> bool:
        return self._allocated[preg]

    # --- checkpoint pinning --------------------------------------------------

    def pin(self, preg: int) -> None:
        if not self._allocated[preg]:
            raise SimulationError(
                f"{self.name}: pinning unallocated register p{preg}")
        self.pinned[preg] = True

    def unpin(self, preg: int) -> None:
        self.pinned[preg] = False

    # --- value state -----------------------------------------------------------

    def set_ready(self, preg: int, cycle: int,
                  invalid: bool = False) -> List[DynInst]:
        """Mark a register's value available; returns (and clears) waiters."""
        self.ready[preg] = cycle
        self.inv[preg] = invalid
        woken = self.waiters[preg]
        self.waiters[preg] = []
        return woken

    def is_ready(self, preg: int, now: int) -> bool:
        return self.ready[preg] <= now

    def add_waiter(self, preg: int, inst: DynInst) -> None:
        self.waiters[preg].append(inst)

    # --- invariants ---------------------------------------------------------------

    def check_conservation(self) -> None:
        """Raise if the free list and allocation flags disagree."""
        allocated = sum(1 for a in self._allocated if a)
        if allocated + len(self._free) != self.size:
            raise SimulationError(
                f"{self.name}: conservation broken "
                f"({allocated} allocated + {len(self._free)} free "
                f"!= {self.size})")
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise SimulationError(f"{self.name}: duplicate free-list entry")
        for preg in free_set:
            if self._allocated[preg]:
                raise SimulationError(
                    f"{self.name}: p{preg} both free and allocated")
            if self.pinned[preg]:
                raise SimulationError(
                    f"{self.name}: free register p{preg} is pinned")
