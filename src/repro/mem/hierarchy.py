"""The full memory hierarchy: L1 I/D, unified L2, main memory, MSHRs.

Timing model
------------
Latencies are sequential probes, per Table 1: an L1 data hit completes in
3 cycles; an L1 miss that hits L2 in 3+20; an L2 miss in 3+20+400.  Cache
arrays are filled eagerly at miss time, and the MSHR file enforces that any
access to a line whose fill is still in flight completes no earlier than
the fill (see :mod:`repro.mem.mshr`).  Misses to one line therefore merge —
this is what lets runahead prefetches overlap.

Stores are write-allocate and never block retirement (a write buffer is
assumed); they bypass MSHR capacity limits.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Set

from ..config import SMTConfig
from .cache import Cache
from .mshr import MSHRFile


@dataclasses.dataclass(slots=True)
class AccessResult:
    """Outcome of one memory access.

    A plain (non-frozen) dataclass on purpose: the frozen variant routes
    every field through ``object.__setattr__``, which is measurable at
    one instance per simulated memory access.  Treat instances as
    immutable all the same.
    """

    complete_cycle: int   # cycle at which data is available
    l2_miss: bool         # data is being served by main memory
    line_addr: int
    merged: bool = False  # satisfied by an already-outstanding fill


@dataclasses.dataclass(slots=True)
class MemStats:
    """Per-thread memory statistics."""

    loads: int = 0
    l2_misses: int = 0
    prefetches: int = 0
    useful_prefetches: int = 0

    def l2_mpki(self, instructions: int) -> float:
        """L2 misses per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.l2_misses / instructions


class MemoryHierarchy:
    """Shared I/D L1s, unified L2 and main memory for all SMT threads."""

    __slots__ = ("config", "icache", "dcache", "l2", "mshr",
                 "memory_latency", "stats", "_prefetched_lines")

    def __init__(self, config: SMTConfig, num_threads: int) -> None:
        self.config = config
        self.icache = Cache("icache", config.icache)
        self.dcache = Cache("dcache", config.dcache)
        self.l2 = Cache("l2", config.l2)
        self.mshr = MSHRFile(config.mshr_entries)
        self.memory_latency = config.memory_latency
        self.stats: List[MemStats] = [MemStats() for _ in range(num_threads)]
        self._prefetched_lines: Set[int] = set()

    # --- data side -------------------------------------------------------------

    def data_access(self, addr: int, is_store: bool, now: int,
                    thread_id: int,
                    speculative: bool = False) -> Optional[AccessResult]:
        """Access data memory.

        Args:
            addr: Byte address (already offset into the thread's segment).
            is_store: Write access (write-allocate, never rejected).
            now: Current cycle.
            thread_id: Accessing thread, for statistics.
            speculative: Runahead prefetch; dropped (returns None) instead
                of retried when the MSHR file is full.

        Returns:
            The access result, or None if the access must be retried
            (demand miss with a full MSHR file) or was dropped (speculative
            miss with a full MSHR file).
        """
        packed = self.data_access_packed(addr, is_store, now, thread_id,
                                         speculative)
        if packed < 0:
            return None
        return AccessResult(packed >> 2, bool(packed & 2),
                            self.dcache.line_of(addr),
                            merged=bool(packed & 1))

    def data_access_packed(self, addr: int, is_store: bool, now: int,
                           thread_id: int, speculative: bool = False) -> int:
        """Allocation-free :meth:`data_access` for the pipeline hot path.

        Returns ``-1`` for a rejected/dropped access, else
        ``(complete_cycle << 2) | (l2_miss << 1) | merged`` — the issue
        stage performs one of these per load/store and only consumes the
        completion cycle and the L2-miss bit, so the boxed
        :class:`AccessResult` is reserved for the friendly wrapper.
        """
        stats = self.stats[thread_id]
        if speculative:
            stats.prefetches += 1
        elif not is_store:
            stats.loads += 1

        dcache = self.dcache
        mshr = self.mshr
        line = dcache.line_of(addr)
        entry = mshr.pending(line, now)
        if entry is not None:
            ready, from_memory = entry
            l1_done = now + dcache.latency
            complete = ready if ready > l1_done else l1_done
            return (complete << 2) | (2 if from_memory else 0) | 1

        if dcache.lookup(line):
            if not speculative and line in self._prefetched_lines:
                self._prefetched_lines.discard(line)   # _credit_prefetch
                stats.useful_prefetches += 1
            return (now + dcache.latency) << 2

        probe_done = now + dcache.latency
        if self.l2.lookup(line):
            if not speculative and line in self._prefetched_lines:
                self._prefetched_lines.discard(line)   # _credit_prefetch
                stats.useful_prefetches += 1
            complete = probe_done + self.l2.latency
            dcache.fill(line)
            # Best-effort MSHR registration for the short L2-hit window.
            mshr.allocate(line, complete, False, now)
            return complete << 2

        # L2 miss: full memory round trip.
        complete = probe_done + self.l2.latency + self.memory_latency
        if not mshr.allocate(line, complete, True, now):
            if is_store:
                # Stores drain through a write buffer; never rejected.
                mshr.force(line, complete)
            else:
                return -1
        stats.l2_misses += 1
        self.l2.fill(line)
        dcache.fill(line)
        if speculative:
            self._prefetched_lines.add(line)
        return (complete << 2) | 2

    def peek_data(self, addr: int) -> str:
        """Side-effect-free presence probe: 'l1', 'l2', or 'memory'.

        Used by the Figure 4 prefetching ablation, where runahead accesses
        must not touch the L2 or memory (no fills, no MSHR traffic, no
        statistics).
        """
        line = self.dcache.line_of(addr)
        if self.dcache.contains(line):
            return "l1"
        if self.l2.contains(line):
            return "l2"
        return "memory"

    # --- instruction side ------------------------------------------------------

    def ifetch(self, pc: int, now: int, thread_id: int,
               speculative: bool = False) -> AccessResult:
        """Fetch the instruction line containing ``pc``."""
        packed = self.ifetch_packed(pc, now, thread_id, speculative)
        return AccessResult(packed >> 2, bool(packed & 2),
                            self.icache.line_of(pc),
                            merged=bool(packed & 1))

    def ifetch_packed(self, pc: int, now: int, thread_id: int,
                      speculative: bool = False) -> int:
        """Allocation-free :meth:`ifetch` for the fetch hot path.

        Same ``(complete_cycle << 2) | (l2_miss << 1) | merged`` encoding
        as :meth:`data_access_packed`; instruction fetches are never
        rejected, so -1 does not occur.
        """
        icache = self.icache
        line = icache.line_of(pc)
        entry = self.mshr.pending(line, now)
        if entry is not None:
            ready, from_memory = entry
            l1_done = now + icache.latency
            complete = ready if ready > l1_done else l1_done
            return (complete << 2) | (2 if from_memory else 0) | 1
        if icache.lookup(line):
            return (now + icache.latency) << 2
        probe_done = now + self.icache.latency
        if self.l2.lookup(line):
            complete = probe_done + self.l2.latency
            self.icache.fill(line)
            self.mshr.allocate(line, complete, False, now)
            return complete << 2
        complete = probe_done + self.l2.latency + self.memory_latency
        self.stats[thread_id].l2_misses += 1
        self.icache.fill(line)
        self.l2.fill(line)
        self.mshr.allocate(line, complete, True, now)
        if speculative:
            self._prefetched_lines.add(line)
        return (complete << 2) | 2

    # --- functional warmup -----------------------------------------------------

    def warm_data(self, addrs: Iterable[int]) -> None:
        """Install the data lines of ``addrs``, in order, without timing
        or statistics (functional warmup)."""
        self._install(self.dcache, addrs)

    def warm_ifetch(self, pcs: Iterable[int]) -> None:
        """Install the instruction lines of ``pcs``, in order, without
        timing or statistics (functional warmup)."""
        self._install(self.icache, pcs)

    def _install(self, l1: Cache, addrs: Iterable[int]) -> None:
        # One call per warmed stream rather than per address: warmup
        # installs thousands of lines per thread before cycle 0.
        l2 = self.l2
        line_bytes = l1.config.line_bytes   # shared by every level
        for addr in addrs:
            line = addr // line_bytes
            if not l1.touch(line):
                l1.fill(line)
            if not l2.touch(line):
                l2.fill(line)

    def reset_stats(self) -> None:
        """Zero all counters (after warmup, before measurement)."""
        for cache in (self.icache, self.dcache, self.l2):
            cache.reset_stats()
        for index in range(len(self.stats)):
            self.stats[index] = MemStats()

    # --- introspection ---------------------------------------------------------

    def total_stats(self) -> MemStats:
        """Aggregate statistics across threads."""
        total = MemStats()
        for stat in self.stats:
            for field in dataclasses.fields(MemStats):
                setattr(total, field.name,
                        getattr(total, field.name) + getattr(stat, field.name))
        return total

    def outstanding_memory_fills(self, now: int) -> int:
        """Fills currently in flight from main memory (MLP snapshot)."""
        return self.mshr.outstanding_memory_fills(now)
