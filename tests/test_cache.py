"""Tests for the set-associative cache, MSHRs and the memory hierarchy."""

import pytest

from repro.config import CacheConfig, SMTConfig
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile

from repro.testing import SMALL_CONFIG


def _small_cache(ways=2, sets=4):
    config = CacheConfig(64 * ways * sets, ways, 64, 1)
    return Cache("test", config)


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = _small_cache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)

    def test_line_of(self):
        cache = _small_cache()
        assert cache.line_of(0) == 0
        assert cache.line_of(63) == 0
        assert cache.line_of(64) == 1

    def test_lru_eviction_order(self):
        cache = _small_cache(ways=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.fill(3)  # evicts 1 (least recently used)
        assert not cache.contains(1)
        assert cache.contains(2) and cache.contains(3)

    def test_lookup_refreshes_recency(self):
        cache = _small_cache(ways=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.lookup(1)     # 1 becomes MRU
        cache.fill(3)       # evicts 2
        assert cache.contains(1) and not cache.contains(2)

    def test_fill_returns_victim(self):
        cache = _small_cache(ways=1, sets=1)
        assert cache.fill(1) is None
        assert cache.fill(2) == 1

    def test_fill_existing_line_is_noop(self):
        cache = _small_cache()
        cache.fill(9)
        assert cache.fill(9) is None
        assert cache.occupancy() == 1

    def test_sets_isolated(self):
        cache = _small_cache(ways=1, sets=4)
        cache.fill(0)
        cache.fill(1)   # different set
        assert cache.contains(0) and cache.contains(1)

    def test_invalidate(self):
        cache = _small_cache()
        cache.fill(7)
        assert cache.invalidate(7)
        assert not cache.contains(7)
        assert not cache.invalidate(7)

    def test_touch_promotes_without_stats(self):
        cache = _small_cache(ways=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        accesses_before = cache.accesses
        assert cache.touch(1)
        assert cache.accesses == accesses_before
        cache.fill(3)
        assert cache.contains(1)

    def test_touch_missing_line(self):
        assert not _small_cache().touch(42)

    def test_stats(self):
        cache = _small_cache()
        cache.lookup(1)
        cache.fill(1)
        cache.lookup(1)
        assert cache.accesses == 2
        assert cache.misses == 1
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.accesses == 0

    def test_occupancy_bounded_by_capacity(self):
        cache = _small_cache(ways=2, sets=2)
        for line in range(100):
            cache.fill(line)
        assert cache.occupancy() <= 4


class TestMSHR:
    def test_allocate_and_pending(self):
        mshr = MSHRFile(4)
        assert mshr.allocate(10, ready_cycle=50, from_memory=True, now=0)
        assert mshr.pending(10, now=10) == (50, True)

    def test_pending_expires(self):
        mshr = MSHRFile(4)
        mshr.allocate(10, 50, True, 0)
        assert mshr.pending(10, now=50) is None

    def test_capacity_reject(self):
        mshr = MSHRFile(2)
        assert mshr.allocate(1, 100, True, 0)
        assert mshr.allocate(2, 100, True, 0)
        assert not mshr.allocate(3, 100, True, 0)
        assert mshr.rejects == 1

    def test_expiry_frees_capacity(self):
        mshr = MSHRFile(1)
        mshr.allocate(1, 10, True, 0)
        assert mshr.allocate(2, 100, True, now=20)

    def test_merge_counted(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 100, True, 0)
        mshr.pending(1, 5)
        assert mshr.merges == 1

    def test_outstanding_memory_fills(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 100, True, 0)
        mshr.allocate(2, 20, False, 0)
        assert mshr.outstanding_memory_fills(now=5) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_force_registers_past_capacity(self):
        mshr = MSHRFile(1)
        mshr.allocate(1, 100, True, 0)
        mshr.force(2, 60)                    # store write-buffer path
        assert len(mshr) == 2
        assert mshr.pending(2, 10) == (60, True)

    def test_expire_collects_all_due_fills(self):
        mshr = MSHRFile(8)
        for line in range(5):
            mshr.allocate(line, 10 + line, True, 0)
        mshr.expire(12)
        assert len(mshr) == 2
        assert mshr.pending(3, 12) == (13, True)


class TestHierarchy:
    def _mem(self, threads=1):
        return MemoryHierarchy(SMALL_CONFIG, threads)

    def test_l1_hit_latency(self):
        mem = self._mem()
        mem.data_access(0x1000, False, 0, 0)           # cold miss fills
        result = mem.data_access(0x1000, False, 500, 0)
        assert result.complete_cycle == 500 + SMALL_CONFIG.dcache.latency
        assert not result.l2_miss

    def test_cold_miss_full_latency(self):
        mem = self._mem()
        result = mem.data_access(0x2000, False, 0, 0)
        expected = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
                    + SMALL_CONFIG.memory_latency)
        assert result.complete_cycle == expected
        assert result.l2_miss

    def test_l2_hit_after_l1_eviction(self):
        mem = self._mem()
        mem.data_access(0x3000, False, 0, 0)
        # Evict from tiny L1 by filling its set (same index bits).
        l1_sets = SMALL_CONFIG.dcache.num_sets
        for way in range(1, 6):
            mem.data_access(0x3000 + way * l1_sets * 64, False, 0, 0)
        result = mem.data_access(0x3000, False, 1000, 0)
        assert not result.l2_miss
        assert result.complete_cycle == (1000 + SMALL_CONFIG.dcache.latency
                                         + SMALL_CONFIG.l2.latency)

    def test_mshr_merging(self):
        mem = self._mem()
        first = mem.data_access(0x4000, False, 0, 0)
        second = mem.data_access(0x4008, False, 5, 0)  # same line
        assert second.merged
        assert second.complete_cycle == first.complete_cycle
        assert second.l2_miss

    def test_demand_miss_rejected_when_mshrs_full(self):
        mem = self._mem()
        for index in range(SMALL_CONFIG.mshr_entries):
            assert mem.data_access(0x10000 + index * 64, False, 0, 0)
        assert mem.data_access(0x80000, False, 0, 0) is None

    def test_store_never_rejected(self):
        mem = self._mem()
        for index in range(SMALL_CONFIG.mshr_entries):
            mem.data_access(0x10000 + index * 64, False, 0, 0)
        assert mem.data_access(0x90000, True, 0, 0) is not None

    def test_prefetch_credit(self):
        mem = self._mem()
        mem.data_access(0x5000, False, 0, 0, speculative=True)
        mem.data_access(0x5000, False, 9999, 0)
        assert mem.stats[0].useful_prefetches == 1
        assert mem.stats[0].prefetches == 1

    def test_ifetch_hit_and_miss(self):
        mem = self._mem()
        miss = mem.ifetch(0x100, 0, 0)
        assert miss.l2_miss
        hit = mem.ifetch(0x104, 9999, 0)
        assert hit.complete_cycle == 9999 + SMALL_CONFIG.icache.latency

    def test_per_thread_stats(self):
        mem = self._mem(threads=2)
        mem.data_access(0x100, False, 0, 0)
        mem.data_access(0x20000, False, 0, 1)
        assert mem.stats[0].loads == 1
        assert mem.stats[1].loads == 1
        assert mem.total_stats().loads == 2

    def test_warm_data_installs_silently(self):
        mem = self._mem()
        mem.warm_data([0x6000])
        assert mem.dcache.accesses == 0
        result = mem.data_access(0x6000, False, 0, 0)
        assert not result.l2_miss
        assert result.complete_cycle == SMALL_CONFIG.dcache.latency

    def test_peek_levels(self):
        mem = self._mem()
        assert mem.peek_data(0x7000) == "memory"
        mem.warm_data([0x7000])
        assert mem.peek_data(0x7000) == "l1"
        stats_before = mem.total_stats().loads
        assert mem.total_stats().loads == stats_before

    def test_reset_stats(self):
        mem = self._mem()
        mem.data_access(0x100, False, 0, 0)
        mem.reset_stats()
        assert mem.total_stats().loads == 0
        assert mem.dcache.accesses == 0

    def test_l2_mpki(self):
        mem = self._mem()
        mem.data_access(0x100, False, 0, 0)
        assert mem.stats[0].l2_mpki(1000) == pytest.approx(1.0)
        assert mem.stats[0].l2_mpki(0) == 0.0
