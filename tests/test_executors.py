"""Executor registry: thread backend, sharded execution, engine paths.

Covers the *execute* stage of the manifest dataflow: every executor
produces bit-identical results; a sharded executor touches only its
slice; ``SimEngine.execute_cells`` fills a shared store so that the
union of shards assembles with zero simulations; and the assembly path
(``run_cells``) refuses a partial batch loudly.
"""

import json
import pickle

import pytest

from repro.config import baseline
from repro.errors import (CellError, IncompleteBatchError, ReproError,
                          SimulationError)
from repro.sim.engine import SimEngine, SweepCell
from repro.sim.executors import (ProcessPoolBackend, SerialBackend,
                                 ShardSpec, ShardedExecutor,
                                 ThreadPoolBackend, executor_names,
                                 get_executor)
from repro.sim.runner import RunSpec
from repro.sim.store import DiskStore
from repro.trace.workloads import Workload

TINY = RunSpec(trace_len=240, seed=3, max_cycles=200_000)

CELLS = [
    SweepCell.make(Workload("MEM2", ("art", "mcf")), "icount", spec=TINY),
    SweepCell.make(Workload("MEM2", ("art", "mcf")), "rat", spec=TINY),
    SweepCell.make(Workload("ILP2", ("gzip", "eon")), "icount", spec=TINY),
    SweepCell.make(Workload("ILP2", ("gzip", "eon")), "stall", spec=TINY),
    SweepCell.make(Workload("MIX2", ("bzip2", "mcf")), "flush", spec=TINY),
]


def fingerprints(runs):
    return [json.dumps(run.result.to_dict(), sort_keys=True)
            for run in runs]


def split_spec():
    """A shard count under which CELLS actually split across shards."""
    for count in range(2, 6):
        owners = {ShardSpec(1, count).owns(cell.key())
                  for cell in CELLS}
        if len(owners) == 2:
            return count
    raise AssertionError("CELLS never split; extend the cell list")


class TestRegistry:
    def test_names(self):
        assert set(executor_names()) >= {"serial", "process", "thread",
                                         "sharded"}

    def test_get_executor(self):
        assert isinstance(get_executor("serial"), SerialBackend)
        assert get_executor("thread", 3).jobs == 3
        assert get_executor("process", 2).jobs == 2
        assert get_executor("thread", None).jobs >= 1

    def test_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("gpu")

    def test_sharded_needs_explicit_construction(self):
        with pytest.raises(ValueError, match="wraps another"):
            get_executor("sharded")


class TestThreadBackend:
    def test_bit_identical_to_serial(self):
        serial = SimEngine(backend=SerialBackend())
        threaded = SimEngine(backend=ThreadPoolBackend(jobs=4))
        assert fingerprints(threaded.run_cells(CELLS)) == \
            fingerprints(serial.run_cells(CELLS))
        assert threaded.counters.simulated == len(CELLS)

    def test_single_job_degenerates_to_serial(self):
        engine = SimEngine(backend=ThreadPoolBackend(jobs=1))
        assert len(engine.run_cells(CELLS[:2])) == 2


class TestShardedExecutor:
    def test_select_filters_deterministically(self):
        count = split_spec()
        items = [(cell.key(), cell) for cell in CELLS]
        selected = []
        for k in range(1, count + 1):
            executor = ShardedExecutor(ShardSpec(k, count))
            owned = executor.select(items)
            assert owned == executor.select(items)  # stable
            selected.extend(key for key, _cell in owned)
        assert sorted(selected) == sorted(key for key, _cell in items)

    def test_run_cells_refuses_partial_batch(self):
        count = split_spec()
        engine = SimEngine(
            backend=ShardedExecutor(ShardSpec(1, count)))
        with pytest.raises(IncompleteBatchError, match="shard"):
            engine.run_cells(CELLS)

    def test_execute_cells_owns_only_its_slice(self, tmp_path):
        count = split_spec()
        store = DiskStore(str(tmp_path / "cache"))
        engine = SimEngine(
            backend=ShardedExecutor(ShardSpec(1, count)),
            store=store)
        report = engine.execute_cells(CELLS)
        assert report.planned == len(CELLS)
        assert 0 < report.owned < len(CELLS)
        assert report.simulated == report.owned
        assert report.skipped == report.planned - report.owned
        assert engine.counters.simulated == report.owned

    def test_shard_union_assembles_with_zero_simulations(self, tmp_path):
        count = split_spec()
        cache = str(tmp_path / "cache")
        for k in range(1, count + 1):
            engine = SimEngine(
                backend=ShardedExecutor(ShardSpec(k, count),
                                        SerialBackend()),
                store=DiskStore(cache))
            engine.execute_cells(CELLS)

        assembler = SimEngine(store=DiskStore(cache))
        runs = assembler.run_cells(CELLS)
        assert assembler.counters.simulated == 0
        assert assembler.counters.store_hits == len(CELLS)
        reference = SimEngine().run_cells(CELLS)
        assert fingerprints(runs) == fingerprints(reference)

    def test_second_execute_is_all_cache_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = SimEngine(store=DiskStore(cache))
        first.execute_cells(CELLS)
        second = SimEngine(store=DiskStore(cache))
        report = second.execute_cells(CELLS)
        assert report.simulated == 0
        assert report.cached == len(CELLS)


class TestExecuteProgress:
    """Satellite: one callback, campaign totals, uniform across backends."""

    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_progress_reports_owned_totals(self, backend_name):
        calls = []
        engine = SimEngine(backend=get_executor(backend_name, 2))
        engine.execute_cells(CELLS, progress=lambda *args:
                             calls.append(args))
        # One leading call for the cached scan + one per simulation.
        assert len(calls) == 1 + len(CELLS)
        dones = [done for done, _total, _cached in calls]
        assert dones == sorted(dones)
        assert all(total == len(CELLS)
                   for _done, total, _cached in calls)
        assert calls[-1][0] == len(CELLS)

    def test_sharded_progress_counts_only_owned_cells(self):
        count = split_spec()
        calls = []
        engine = SimEngine(
            backend=ShardedExecutor(ShardSpec(1, count)))
        report = engine.execute_cells(CELLS, progress=lambda *args:
                                      calls.append(args))
        assert all(total == report.owned
                   for _done, total, _cached in calls)
        assert calls[-1][0] == report.owned

    def test_run_cells_progress_unchanged_shape(self):
        calls = []
        engine = SimEngine()
        engine.run_cells(CELLS[:2], progress=lambda *args:
                         calls.append(args))
        assert calls[0] == (0, 2, 0)
        assert calls[-1] == (2, 2, 0)


class TestCellError:
    """A failing cell names itself, under every executor."""

    CELL = SweepCell.make(Workload("MEM4", ("art", "mcf", "swim", "twolf")),
                          "rat", config=baseline().with_registers(64),
                          spec=TINY)

    @pytest.mark.parametrize("backend", [
        SerialBackend(), ProcessPoolBackend(jobs=2)], ids=["serial",
                                                           "process"])
    def test_failing_cell_names_key_workload_and_policy(self, backend):
        # Two items, so the process pool really fans out to workers.
        items = [(self.CELL.key(), self.CELL)] * 2
        with pytest.raises(CellError) as excinfo:
            backend.run(items, lambda key, result: None)
        error = excinfo.value
        message = str(error)
        assert self.CELL.key()[:12] in message
        assert "MEM4 art+mcf+swim+twolf" in message
        assert "policy rat" in message
        assert "SimulationError: 4 threads need 128 architectural " \
               "registers per file; config provides 64/64" in message
        assert (error.key, error.policy) == (self.CELL.key(), "rat")
        assert error.__cause__ is not None
        assert isinstance(error, ReproError)

    def test_serial_chains_the_original_error(self):
        with pytest.raises(CellError) as excinfo:
            SerialBackend().run([(self.CELL.key(), self.CELL)],
                                lambda key, result: None)
        assert isinstance(excinfo.value.__cause__, SimulationError)

    def test_round_trips_through_pickle(self):
        error = CellError("ab" * 32, "MEM2", ("art", "mcf"), "stall",
                          "DeadlockError: stuck")
        again = pickle.loads(pickle.dumps(error))
        assert str(again) == str(error)
        assert again.benchmarks == ("art", "mcf")
