"""Set-associative cache with true LRU replacement.

The cache stores *line addresses* (byte address // line size).  Values are
never stored — the simulator is trace-driven — so a cache is purely a
presence/recency structure.  Each set is an ordered list of line addresses,
most-recently-used last, which makes LRU update and victim selection O(ways)
for the small associativities of Table 1.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CacheConfig


class Cache:
    """One cache level (geometry from :class:`~repro.config.CacheConfig`)."""

    __slots__ = ("name", "config", "_sets", "_set_mask", "accesses",
                 "misses", "fills", "evictions")

    def __init__(self, name: str, config: CacheConfig) -> None:
        config.validate(name)
        self.name = name
        self.config = config
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1
        self.accesses = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0

    @property
    def ways(self) -> int:
        return self.config.assoc

    @property
    def latency(self) -> int:
        return self.config.latency

    def line_of(self, byte_addr: int) -> int:
        """Line address containing ``byte_addr``."""
        return byte_addr // self.config.line_bytes

    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """Probe for a line; hit updates recency unless told otherwise.

        The membership test runs before ``index`` so the miss path (the
        common case on the MEM workloads' hot loops) is a single C-level
        scan instead of a raised-and-caught ValueError.
        """
        self.accesses += 1
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr not in cache_set:
            self.misses += 1
            return False
        if update_lru and cache_set[-1] != line_addr:
            cache_set.remove(line_addr)
            cache_set.append(line_addr)
        return True

    def contains(self, line_addr: int) -> bool:
        """Presence check without touching statistics or recency."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def touch(self, line_addr: int) -> bool:
        """Promote a line to most-recently-used without statistics.

        Used by functional warmup, where most first touches miss: the
        membership test keeps a miss from raising and catching.  Returns
        True if the line was present.
        """
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr not in cache_set:
            return False
        if cache_set[-1] != line_addr:
            cache_set.remove(line_addr)
            cache_set.append(line_addr)
        return True

    def fill(self, line_addr: int) -> Optional[int]:
        """Insert a line; returns the evicted line address, if any."""
        self.fills += 1
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(0)
            self.evictions += 1
        cache_set.append(line_addr)
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns True if it was present."""
        cache_set = self._sets[line_addr & self._set_mask]
        try:
            cache_set.remove(line_addr)
        except ValueError:
            return False
        return True

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
