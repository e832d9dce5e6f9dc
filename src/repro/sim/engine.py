"""Pluggable simulation engine: execution backends + result store.

The whole experiment stack (sweeps, the figure/table drivers, the CLI)
funnels every simulation through a :class:`SimEngine`.  An engine owns

* a **backend** deciding *where* cells execute — any executor from the
  registry in :mod:`repro.sim.executors` (``serial``, ``process``,
  ``thread``, or a :class:`~repro.sim.executors.ShardedExecutor` slice
  of a campaign);
* a **store** (:mod:`repro.sim.store`) deciding *whether* a cell needs
  executing at all — results are content-addressed by a stable hash of
  (workload, policy, config, spec, code-version salt), so an engine with
  a :class:`~repro.sim.store.DiskStore` never re-simulates a cell any
  previous invocation already measured.

A cell (:class:`SweepCell`) is one (workload, policy, config, spec)
combination.  Simulation is a pure, deterministic function of the cell
— :func:`~repro.sim.executors.simulate_cell` regenerates the seeded
traces and runs the processor — so serial and parallel execution produce
bit-identical results and completion order never matters.

Two engine entry points map onto the campaign dataflow
(:mod:`repro.sim.manifest`): :meth:`SimEngine.run_cells` is the
*assembly* path (every cell must resolve to a run; a sharded backend
therefore fails it by design) and :meth:`SimEngine.execute_cells` is the
*execute* path (fill the store with whatever slice of the batch this
invocation owns, report counts, return no runs).

A process-wide default engine (:func:`get_engine` / :func:`set_engine`)
preserves the historical module-level memoization API: bare
:func:`repro.sim.runner.run_workload` calls hit the default engine's
in-memory store.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SMTConfig, baseline
from ..core.processor import SimResult
from ..errors import IncompleteBatchError
from ..trace.workloads import Workload
from .executors import (ProcessPoolBackend, SerialBackend,  # noqa: F401
                        ThreadPoolBackend, batch_traces, simulate_cell)
from .runner import RunSpec, WorkloadRun, default_spec
from .store import MemoryStore, ResultStore, cache_key

#: Workload class label for synthetic one-benchmark workloads (the
#: single-thread reference runs behind the fairness metric, Table 2's
#: per-benchmark characterization, ...).
SINGLE_CLASS = "SINGLE"

#: Progress callback: (cells completed, cells total, of which cached).
ProgressFn = Callable[[int, int, int], None]


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One independently simulatable unit of a campaign."""

    workload: Workload
    policy: str
    config: SMTConfig
    spec: RunSpec

    @classmethod
    def make(cls, workload: Workload, policy: str,
             config: Optional[SMTConfig] = None,
             spec: Optional[RunSpec] = None) -> "SweepCell":
        """Normalized constructor.

        The policy is folded into the config (``config.with_policy``)
        before keying, so e.g. ``("rat", icount-config)`` and
        ``("rat", rat-config)`` address the same cached result.
        """
        config = (config if config is not None else baseline())
        return cls(workload=workload, policy=policy,
                   config=config.with_policy(policy),
                   spec=spec if spec is not None else default_spec())

    def key(self) -> str:
        return self._key

    @functools.cached_property
    def _key(self) -> str:
        # Memoized on the (frozen) cell: planning keys each cell several
        # times, and the key is a pure function of the fields.
        return cache_key(self.workload, self.policy, self.config, self.spec)


def reference_cell(benchmark: str, config: Optional[SMTConfig] = None,
                   spec: Optional[RunSpec] = None) -> SweepCell:
    """The cell measuring one benchmark's single-thread reference IPC.

    The fetch policy is pinned to ICOUNT (alone on the machine, every
    policy's fetch schedule degenerates to the same thing) and at least
    3 FAME passes are required: a single pass is dominated by start-up
    transients, which would overstate multithreaded speedups in the
    fairness metric.
    """
    spec = spec if spec is not None else default_spec()
    ref_spec = dataclasses.replace(spec,
                                   min_passes=max(3, spec.min_passes))
    return SweepCell.make(Workload(SINGLE_CLASS, (benchmark,)),
                          "icount", config, ref_spec)


class RunIndex:
    """Immutable cell -> memoized run mapping an executed batch returns.

    The assemble phase of an exhibit looks runs up by the very
    :class:`SweepCell` values its plan declared; lookup goes through the
    content-addressed cell key, so equal cells (however constructed)
    resolve to the same run.
    """

    def __init__(self, runs: Dict[str, WorkloadRun]) -> None:
        self._runs = dict(runs)

    @classmethod
    def from_runs(cls, cells: Sequence[SweepCell],
                  runs: Sequence[WorkloadRun]) -> "RunIndex":
        return cls({cell.key(): run for cell, run in zip(cells, runs)})

    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, cell: SweepCell) -> bool:
        return cell.key() in self._runs

    def __getitem__(self, cell: SweepCell) -> WorkloadRun:
        try:
            return self._runs[cell.key()]
        except KeyError:
            raise KeyError(
                f"cell not in this campaign's plan: {cell.workload} "
                f"policy={cell.policy!r} — assemble() may only consume "
                f"cells its plan() declared") from None

    def get(self, cell: SweepCell,
            default: Optional[WorkloadRun] = None) -> Optional[WorkloadRun]:
        return self._runs.get(cell.key(), default)

    def single_thread_ipc(self, benchmark: str,
                          config: Optional[SMTConfig] = None,
                          spec: Optional[RunSpec] = None) -> float:
        """One benchmark's reference IPC from the planned reference cell."""
        return self[reference_cell(benchmark, config, spec)].result.ipcs[0]


@dataclasses.dataclass
class EngineCounters:
    """How the engine satisfied its cells so far."""

    simulated: int = 0    # fresh simulations executed by the backend
    store_hits: int = 0   # satisfied from the result store
    memo_hits: int = 0    # satisfied from already-wrapped WorkloadRuns

    def snapshot(self) -> "EngineCounters":
        return dataclasses.replace(self)

    def since(self, earlier: "EngineCounters") -> "EngineCounters":
        return EngineCounters(
            simulated=self.simulated - earlier.simulated,
            store_hits=self.store_hits - earlier.store_hits,
            memo_hits=self.memo_hits - earlier.memo_hits,
        )


@dataclasses.dataclass(frozen=True)
class ExecutionReport:
    """How one :meth:`SimEngine.execute_cells` invocation went.

    ``planned`` counts the whole deduplicated batch; ``owned`` the cells
    this invocation was responsible for after the backend's shard filter
    (equal to ``planned`` for unsharded executors); ``cached`` of those
    were already in the store and ``simulated`` were computed fresh.
    """

    planned: int
    owned: int
    cached: int
    simulated: int

    @property
    def skipped(self) -> int:
        """Cells other shards own (0 for unsharded executors)."""
        return self.planned - self.owned


class SimEngine:
    """Backend-abstracted, store-backed executor of simulation cells."""

    def __init__(self, backend=None, store: Optional[ResultStore] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.store = store if store is not None else MemoryStore()
        self.progress = progress
        self.counters = EngineCounters()
        self._memo: Dict[str, WorkloadRun] = {}

    def clear_memo(self) -> None:
        """Drop the in-process :class:`WorkloadRun` memo only.

        The result store is untouched: subsequent lookups fall through to
        it and count as ``store_hits``.
        """
        self._memo.clear()

    def clear_store(self) -> None:
        """Clear the result store's in-process entries.

        For a :class:`~repro.sim.store.MemoryStore` that is everything it
        holds; a :class:`~repro.sim.store.DiskStore` only drops its
        front memory layer — on-disk entries persist by design (they are
        content-addressed, so they can never serve stale results).
        """
        self.store.clear()

    def clear(self) -> None:
        """Forget every in-process result (memo + store memory layers).

        After this, each cell is re-simulated once — unless a disk store
        still holds it, in which case it is re-read and counted as a
        ``store_hit``.
        """
        self.clear_memo()
        self.clear_store()

    def _wrap(self, cell: SweepCell, result: SimResult) -> WorkloadRun:
        return WorkloadRun(workload=cell.workload, policy=cell.policy,
                           spec=cell.spec, result=result)

    def _lookup(self, key: str, cell: SweepCell) -> Optional[WorkloadRun]:
        run = self._memo.get(key)
        if run is not None:
            self.counters.memo_hits += 1
            return run
        result = self.store.get(key)
        if result is not None:
            self.counters.store_hits += 1
            run = self._wrap(cell, result)
            self._memo[key] = run
            return run
        return None

    def run_cells(self, cells: Sequence[SweepCell],
                  progress: Optional[ProgressFn] = None
                  ) -> List[WorkloadRun]:
        """Execute a batch of cells, returning runs in input order.

        Cached cells are served from the store; the rest are deduplicated
        and handed to the backend in one batch, so a parallel backend
        overlaps every outstanding simulation of a campaign.

        ``progress`` defaults to the engine-level callback; pass
        ``False`` to silence it for internal bookkeeping lookups.
        """
        if progress is None:
            progress = self.progress
        elif progress is False:
            progress = None
        cells = list(cells)
        total = len(cells)
        results: List[Optional[WorkloadRun]] = [None] * total
        waiting: Dict[str, List[int]] = {}
        waiting_cells: Dict[str, SweepCell] = {}
        done = 0
        for index, cell in enumerate(cells):
            key = cell.key()
            run = self._lookup(key, cell)
            if run is not None:
                results[index] = run
                done += 1
            else:
                waiting.setdefault(key, []).append(index)
                waiting_cells.setdefault(key, cell)
        cached = done
        if progress:
            progress(done, total, cached)

        def _on_result(key: str, result: SimResult) -> None:
            nonlocal done
            self.counters.simulated += 1
            self.store.put(key, result)
            run = self._wrap(waiting_cells[key], result)
            self._memo[key] = run
            for index in waiting[key]:
                results[index] = run
                done += 1
            if progress:
                progress(done, total, cached)

        if waiting:
            items = [(key, waiting_cells[key]) for key in waiting]
            self.backend.run(items, _on_result)
        if done != total:
            raise IncompleteBatchError(
                total - done, total,
                hint="assembly needs every cell; a sharded executor "
                     "computes only its slice — run each shard's "
                     "execute stage first, then assemble with an "
                     "unsharded backend against the shared store")
        return results  # type: ignore[return-value]

    def execute_cells(self, cells: Sequence[SweepCell],
                      progress: Optional[ProgressFn] = None
                      ) -> "ExecutionReport":
        """The *execute* stage: fill the store, return counts — no runs.

        Deduplicates the batch, applies the backend's shard filter (an
        executor exposing ``select`` — e.g.
        :class:`~repro.sim.executors.ShardedExecutor` — owns only part
        of a batch), simulates whichever owned cells the store does not
        already hold, and reports how the batch was satisfied.  Progress
        goes through the same single callback as :meth:`run_cells`:
        ``(done, total, cached)`` over this invocation's *owned* cells,
        however the backend executes them.
        """
        if progress is None:
            progress = self.progress
        elif progress is False:
            progress = None
        unique: Dict[str, SweepCell] = {}
        for cell in cells:
            unique.setdefault(cell.key(), cell)
        items = list(unique.items())
        select = getattr(self.backend, "select", None)
        owned = list(select(items)) if select is not None else items
        total = len(owned)
        done = 0
        pending = []
        for key, cell in owned:
            # Existence check only: this stage never consumes the
            # results, so re-running a shard over a populated store
            # costs a stat per cell, not a read+parse.
            if key in self._memo or self.store.contains(key):
                done += 1
            else:
                pending.append((key, cell))
        cached = done
        if progress:
            progress(done, total, cached)

        def _on_result(key: str, result: SimResult) -> None:
            nonlocal done
            self.counters.simulated += 1
            self.store.put(key, result)
            self._memo[key] = self._wrap(unique[key], result)
            done += 1
            if progress:
                progress(done, total, cached)

        if pending:
            # `pending` is already shard-filtered; `select` is a pure
            # function of the keys, so the backend re-applying it in
            # run() selects the same subset.
            self.backend.run(pending, _on_result)
        return ExecutionReport(planned=len(items), owned=total,
                               cached=cached, simulated=len(pending))

    def run_index(self, cells: Sequence[SweepCell],
                  progress: Optional[ProgressFn] = None) -> RunIndex:
        """Execute a batch and index its runs by cell for assembly."""
        cells = list(cells)
        return RunIndex.from_runs(cells, self.run_cells(cells,
                                                        progress=progress))

    def run_workload(self, workload: Workload, policy: str,
                     config: Optional[SMTConfig] = None,
                     spec: Optional[RunSpec] = None) -> WorkloadRun:
        """Simulate (or recall) one workload under one policy."""
        cell = SweepCell.make(workload, policy, config, spec)
        key = cell.key()
        run = self._lookup(key, cell)
        if run is not None:
            return run
        return self.run_cells([cell], progress=False)[0]

    def single_thread_ipc(self, benchmark: str,
                          config: Optional[SMTConfig] = None,
                          spec: Optional[RunSpec] = None) -> float:
        """One benchmark's single-thread reference IPC (equation 2)."""
        cell = reference_cell(benchmark, config, spec)
        run = self.run_cells([cell], progress=False)[0]
        return run.result.ipcs[0]


_default_engine: Optional[SimEngine] = None


def get_engine() -> SimEngine:
    """The process-wide default engine (serial, in-memory store)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = SimEngine()
    return _default_engine


def set_engine(engine: Optional[SimEngine]) -> Optional[SimEngine]:
    """Install ``engine`` as the process default; returns the previous one.

    The CLI uses this so every layer below it — drivers, sweeps, the
    fairness references — shares one backend and one store without
    threading an engine argument through every call site.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
