"""Executors: *where* a campaign's cells run.

Executors are the second stage of the plan -> execute -> assemble
dataflow (see :mod:`repro.sim.manifest`).  Each one consumes a batch of
``(key, cell)`` items and reports every finished :class:`SimResult`
through a single ``on_result`` callback — the engine owns that callback,
which is what keeps progress reporting and store writes uniform across
backends.  Two executors ship, and ``--jobs`` alone picks one
(:func:`get_executor`):

* ``serial`` (``--jobs 1``) — cells run one after another in this
  process;
* ``process`` (``--jobs N``, or ``0`` for one worker per CPU core) —
  cells fan out over a :class:`ProcessPoolExecutor`; the batch's traces
  are generated once and shipped to the workers.

:func:`simulate_cell` is a pure function of the cell, so both are
bit-identical.  Sharding is not an executor: ``--shard K/N`` hands the
engine the manifest's K-of-N slice
(:meth:`~repro.sim.manifest.CampaignManifest.filter_shard`).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.processor import SMTProcessor, SimResult
from ..errors import CellError
from ..trace.generator import TraceKey, generate_trace, prime_traces
from ..trace.trace import Trace


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
    in-process :func:`generate_trace` memo makes repeats free.  The
    process pool ships this mapping to its workers (ROADMAP "batch trace
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


def get_executor(name: str, jobs: Optional[int] = None):
    """``serial``, or ``process`` with ``jobs`` workers (None: one per
    CPU core)."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(jobs)
    raise ValueError(f"unknown executor {name!r}; expected 'serial' or "
                     f"'process'")


class SerialBackend:
    """Execute cells one after another in this process."""

    jobs = 1

    def run(self, items: Sequence[Item], on_result: OnResult) -> None:
        for key, cell in items:
            on_result(key, simulate_cell(cell))


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
        from concurrent.futures import ProcessPoolExecutor, as_completed
        workers = min(self.jobs, len(items))
        traces = batch_traces(cell for _, cell in items)
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_prime_worker,
                                 initargs=(traces,)) as pool:
            futures = {pool.submit(simulate_cell, cell): key
                       for key, cell in items}
            for future in as_completed(futures):
                on_result(futures[future], future.result())
