"""Data-address stream models for the synthetic trace generator.

Each benchmark's memory behaviour is composed of three archetypes observed
across SPEC CPU2000:

* :class:`StridedStream` — array sweeps with a fixed stride (swim, applu,
  art...).  High spatial locality; misses are independent, so runahead can
  overlap many of them (high memory-level parallelism).
* :class:`RandomStream` — scattered accesses over a working set (twolf, vpr
  style) with an explicit hot/cold split: most accesses fall in a small hot
  region (temporal locality — real programs re-touch a small resident set),
  the rest roam the full working set.  The miss rate is therefore governed
  by how the *hot region* compares to L1 and the *working set* to L2.
* :class:`PointerChaseStream` — linked-structure traversal (mcf, parser).
  Node addresses follow the same hot/cold split, and the *register*
  dependence chain created by the generator makes each load's address
  depend on the previous load, which limits MLP exactly the way real
  pointer chasing does.

Streams draw from the trace's shared :class:`~repro.trace.rng.Rng` so
traces are deterministic for a given seed.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import List

from .rng import Rng

#: Base of the synthetic data segment.  Distinct from the code segment so
#: I- and D-streams never alias.
DATA_SEGMENT_BASE = 0x4000_0000


class AddressStream:
    """Interface for data-address generators."""

    #: True if loads on this stream should be chained through registers.
    dependent = False

    def next_address(self) -> int:
        raise NotImplementedError


class StridedStream(AddressStream):
    """Sequential sweep over a region with a fixed stride.

    After ``sweep_length`` accesses the stream restarts at a new offset
    within its region, modelling a fresh pass over a different array slice.
    """

    def __init__(self, rng: Rng, base: int, region_bytes: int,
                 stride: int, sweep_length: int = 4096) -> None:
        if region_bytes <= 0:
            raise ValueError("region_bytes must be positive")
        self._rng = rng
        self._base = base
        self._region = region_bytes
        self._stride = max(1, stride)
        self._sweep_length = max(1, sweep_length)
        self._offset = rng.integers(0, region_bytes)
        self._count = 0

    def next_address(self) -> int:
        address = self._base + (self._offset % self._region)
        self._offset += self._stride
        self._count += 1
        if self._count >= self._sweep_length:
            self._count = 0
            self._offset = self._rng.integers(0, self._region)
        return address


class _HotColdRegion:
    """Shared hot/cold address selection for random and chase streams."""

    def __init__(self, rng: Rng, base: int, region_bytes: int,
                 hot_fraction: float, hot_prob: float,
                 hot_bytes_cap: int = 0) -> None:
        if region_bytes <= 0:
            raise ValueError("region_bytes must be positive")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_prob <= 1.0:
            raise ValueError("hot_prob must be in [0, 1]")
        self._base = base
        self._region = region_bytes
        hot_bytes = max(64, int(region_bytes * hot_fraction))
        if hot_bytes_cap > 0:
            # The hot set must be small enough that one trace pass actually
            # re-touches it several times — otherwise a short trace could
            # never establish residency and "hot" would behave cold.
            hot_bytes = min(hot_bytes, max(64, hot_bytes_cap))
        self._hot_bytes = hot_bytes
        # Place the hot region somewhere stable inside the working set.
        limit = max(1, region_bytes - self._hot_bytes)
        self._hot_base = rng.integers(0, limit)
        self._hot_prob = hot_prob
        # Bound once: pick_offset runs per generated memory access.
        self._random = rng.random
        self._integers = rng.integers

    def pick_offset(self) -> int:
        if self._random() < self._hot_prob:
            return self._hot_base + self._integers(0, self._hot_bytes)
        return self._integers(0, self._region)

    @property
    def hot_bytes(self) -> int:
        return self._hot_bytes


class RandomStream(AddressStream):
    """Scattered accesses with a hot resident set, 8-byte aligned."""

    def __init__(self, rng: Rng, base: int,
                 region_bytes: int, hot_fraction: float = 0.05,
                 hot_prob: float = 0.85, hot_bytes_cap: int = 0) -> None:
        self._picker = _HotColdRegion(rng, base, region_bytes,
                                      hot_fraction, hot_prob, hot_bytes_cap)
        self._base = base

    def next_address(self) -> int:
        return self._base + (self._picker.pick_offset() & ~0x7)


class PointerChaseStream(AddressStream):
    """Linked-list style traversal: node addresses with a hot resident set;
    the generator chains each load's source register to the previous chase
    load's destination, serializing address generation *timing*."""

    dependent = True

    def __init__(self, rng: Rng, base: int,
                 region_bytes: int, node_bytes: int = 64,
                 hot_fraction: float = 0.02, hot_prob: float = 0.6,
                 hot_bytes_cap: int = 0) -> None:
        self._picker = _HotColdRegion(rng, base, region_bytes,
                                      hot_fraction, hot_prob, hot_bytes_cap)
        self._base = base
        self._node = max(8, node_bytes)

    def next_address(self) -> int:
        offset = self._picker.pick_offset()
        return self._base + (offset // self._node) * self._node


class StreamMixer:
    """Selects a stream per memory access according to profile weights."""

    def __init__(self, rng: Rng, streams: List[AddressStream],
                 weights: List[float]) -> None:
        if len(streams) != len(weights) or not streams:
            raise ValueError("streams and weights must be same non-zero length")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._random = rng.random
        self._streams = streams
        self._last = len(streams) - 1
        # Left-to-right float sums: the same values numpy's cumsum gave
        # when the trace pins were recorded.
        self._cumulative = list(accumulate(w / total for w in weights))

    def pick(self) -> AddressStream:
        index = bisect_right(self._cumulative, self._random())
        return self._streams[index if index < self._last else self._last]
