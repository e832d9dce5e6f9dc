"""Executor registry: *where* a campaign's cells run.

Executors are the second stage of the plan -> execute -> assemble
dataflow (see :mod:`repro.sim.manifest`).  Each one consumes a batch of
``(key, cell)`` items and reports every finished :class:`SimResult`
through a single ``on_result`` callback — the engine owns that callback,
which is what keeps progress reporting and store writes uniform across
backends.  Like fetch policies (``policies/registry.py``) and exhibits
(``experiments/registry.py``), executors register under a CLI name via
the :func:`executor` decorator and are resolved with
:func:`get_executor`.

Four executors ship:

* ``serial`` — cells run one after another in this process;
* ``process`` — cells fan out over a :class:`ProcessPoolExecutor`
  (the batch's traces are generated once and shipped to the workers);
* ``thread`` — cells fan out over a :class:`ThreadPoolExecutor`.
  **GIL caveat:** on a stock CPython build the simulator is pure-Python
  CPU-bound work, so threads time-slice a single core and the wall-clock
  win over ``serial`` is limited to skipping the process pool's
  pickle/spawn overhead on small batches.  On free-threaded builds
  (``Py_GIL_DISABLED``, python3.13t+) the same executor scales across
  cores with no pickling at all.  Results are bit-identical either way —
  :func:`simulate_cell` is a pure function of the cell;
* ``sharded`` — a deterministic ``K/N`` filter wrapped around any inner
  executor.  Shard ``K`` *selects* only the cells whose content hash
  lands in its residue class, so N machines (or N CI jobs) pointed at
  one shared :class:`~repro.sim.store.DiskStore` split a campaign
  without coordinating, and any one of them can later assemble the
  union straight from the store.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                as_completed)
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.processor import SMTProcessor, SimResult
from ..errors import CellError, ManifestError
from ..trace.generator import TraceKey, generate_trace, prime_traces
from ..trace.trace import Trace

#: How many leading hex digits of a cell key feed the shard residue.
#: 16 digits = 64 bits, far beyond any campaign size; the prefix (not
#: the whole 256-bit digest) keeps the arithmetic cheap and the
#: assignment trivially reproducible in shell/CI tooling.
_SHARD_HEX_DIGITS = 16


def simulate_cell(cell) -> SimResult:
    """Simulate one cell from scratch (pure; runs in worker processes).

    Trace generation is seeded by the spec, so any process computing the
    same cell produces the same traces and therefore the same result.
    A failure raises :class:`~repro.errors.CellError`, which names the
    cell.
    """
    try:
        traces = [generate_trace(name, cell.spec.trace_len, cell.spec.seed)
                  for name in cell.workload.benchmarks]
        processor = SMTProcessor(cell.config, traces)
        return processor.run(min_passes=cell.spec.min_passes,
                             max_cycles=cell.spec.max_cycles)
    except Exception as error:
        raise CellError(cell.key(), cell.workload.klass,
                        cell.workload.benchmarks, cell.policy,
                        f"{type(error).__name__}: {error}") from error


def batch_traces(cells) -> Dict[TraceKey, Trace]:
    """Generate every distinct trace a batch of cells needs, once.

    Returns a ``(benchmark, trace_len, seed) -> Trace`` mapping; the
    in-process :func:`generate_trace` memo makes repeats free.  Campaign
    backends ship this mapping to their workers (ROADMAP "batch trace
    generation"): a worker then deserializes each trace once instead of
    regenerating it per cell.
    """
    traces: Dict[TraceKey, Trace] = {}
    for cell in cells:
        for name in cell.workload.benchmarks:
            key = (name, cell.spec.trace_len, cell.spec.seed)
            if key not in traces:
                traces[key] = generate_trace(*key)
    return traces


def _prime_worker(traces: Dict[TraceKey, Trace]) -> None:
    """Pool initializer: install the batch's traces in this worker."""
    prime_traces(traces)


#: Batch item: (content-addressed store key, cell).
Item = Tuple[str, "SweepCell"]  # noqa: F821 - engine defines SweepCell

#: Result sink every executor reports through.
OnResult = Callable[[str, SimResult], None]

_REGISTRY: Dict[str, type] = {}


def executor(name: str) -> Callable[[type], type]:
    """Class decorator registering an executor under a CLI name."""
    def _register(cls: type) -> type:
        cls.name = name
        _REGISTRY[name] = cls
        return cls
    return _register


def executor_names() -> Tuple[str, ...]:
    """All registered executor names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_executor(name: str, jobs: Optional[int] = None):
    """Instantiate a registered executor by name.

    ``jobs`` is forwarded to pool executors; ``serial`` ignores it.
    ``sharded`` is not directly constructible here — wrap any executor
    in a :class:`ShardedExecutor` explicitly, since it needs a shard
    spec as well.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of "
            f"{executor_names()}") from None
    if cls is ShardedExecutor:
        raise ValueError("the 'sharded' executor wraps another executor; "
                         "construct ShardedExecutor(shard, inner) directly")
    if cls is SerialBackend:
        return cls()
    return cls(jobs)


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One machine's deterministic slice of a campaign: shard K of N."""

    index: int   # 1-based, 1 <= index <= count
    count: int

    def __post_init__(self) -> None:
        if self.count < 1 or not 1 <= self.index <= self.count:
            raise ManifestError(
                f"invalid shard {self.index}/{self.count}: need "
                f"1 <= K <= N")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``K/N`` (e.g. ``2/4``).

        Out-of-range values (``0/4``, ``5/4``) raise from
        ``__post_init__`` and pass through untouched.
        """
        try:
            index_text, count_text = text.split("/", 1)
            return cls(int(index_text), int(count_text))
        except ValueError:
            raise ManifestError(
                f"invalid --shard {text!r}: expected K/N, e.g. 2/4"
            ) from None

    def owns(self, key: str) -> bool:
        """Whether this shard is responsible for a cell key.

        Assignment hashes the key's leading hex digits into a residue
        class, so it depends only on the key text — every machine, CI
        job and Python version agrees on the split.
        """
        return int(key[:_SHARD_HEX_DIGITS], 16) % self.count == \
            self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@executor("serial")
class SerialBackend:
    """Execute cells one after another in this process."""

    jobs = 1

    def run(self, items: Sequence[Item], on_result: OnResult) -> None:
        for key, cell in items:
            on_result(key, simulate_cell(cell))


@executor("process")
class ProcessPoolBackend:
    """Fan independent cells out over a pool of worker processes.

    Every distinct (benchmark, trace_len, seed) trace the batch needs is
    generated exactly once in the coordinating process and shipped to
    the workers through the pool initializer, so no worker spends time
    in the trace generator (results are identical either way — traces
    are a pure function of their key).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))

    def run(self, items: Sequence[Item], on_result: OnResult) -> None:
        if self.jobs == 1 or len(items) <= 1:
            SerialBackend().run(items, on_result)
            return
        workers = min(self.jobs, len(items))
        traces = batch_traces(cell for _, cell in items)
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_prime_worker,
                                 initargs=(traces,)) as pool:
            futures = {pool.submit(simulate_cell, cell): key
                       for key, cell in items}
            for future in as_completed(futures):
                on_result(futures[future], future.result())


@executor("thread")
class ThreadPoolBackend:
    """Fan independent cells out over a pool of threads.

    No pickling, no worker spawn, shared trace memo — the cheap way to
    overlap cells.  See the module docstring for the GIL caveat: on a
    stock CPython build the win over ``serial`` is bounded by the
    process pool's serialization overhead it avoids; free-threaded
    builds get true core scaling.  ``on_result`` is invoked from the
    coordinating thread only, so stores and counters see no concurrent
    calls.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))

    def run(self, items: Sequence[Item], on_result: OnResult) -> None:
        if self.jobs == 1 or len(items) <= 1:
            SerialBackend().run(items, on_result)
            return
        workers = min(self.jobs, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(simulate_cell, cell): key
                       for key, cell in items}
            for future in as_completed(futures):
                on_result(futures[future], future.result())


@executor("sharded")
class ShardedExecutor:
    """Deterministic K/N slice of a batch, delegated to an inner executor.

    :meth:`select` is the shard filter; the engine applies it *before*
    cache lookups (``SimEngine.execute_cells``), so a shard touches only
    the cells it owns.  ``run`` filters defensively as well — selection
    is a pure function of the keys, so re-filtering already-selected
    items is a no-op and a sharded executor never simulates a foreign
    cell, whichever engine path it is plugged into.  (Any executor
    exposing ``select`` must honour that contract: the engine may hand
    ``run`` a pre-filtered batch.)  Note that ``SimEngine.run_cells``
    (the assembly path) requires results for *every* cell and raises
    ``IncompleteBatchError`` under a sharded executor by design —
    execute shards first, then assemble the union from the shared store.
    """

    def __init__(self, shard: ShardSpec, inner=None) -> None:
        self.shard = shard
        self.inner = inner if inner is not None else SerialBackend()
        self.jobs = self.inner.jobs

    def select(self, items: Sequence[Item]) -> List[Item]:
        """The subset of a batch this shard is responsible for."""
        return [(key, cell) for key, cell in items
                if self.shard.owns(key)]

    def run(self, items: Sequence[Item], on_result: OnResult) -> None:
        self.inner.run(self.select(items), on_result)
