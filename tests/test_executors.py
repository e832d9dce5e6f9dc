"""Executors and the engine's two entry points.

Covers the *execute* stage of the manifest dataflow: ``--jobs`` picks
the serial or process executor; ``SimEngine.execute_cells`` fills a
shared store with a shard's slice so that the union of shards assembles
with zero simulations; and both entry points refuse a backend that drops
a cell.
"""

import json
import pickle
import re

import pytest

from repro.cli import main
from repro.config import baseline
from repro.errors import (CellError, IncompleteBatchError, ReproError,
                          SimulationError)
from repro.sim.engine import SimEngine, SweepCell
from repro.sim.executors import (ProcessPoolBackend, SerialBackend,
                                 get_executor)
from repro.sim.manifest import CampaignManifest, ShardSpec
from repro.sim.runner import RunSpec
from repro.sim.store import DiskStore, MemoryStore
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


def shard_cells(shard):
    """The cells of CELLS a shard owns, as a manifest slice holds them."""
    return [cell for cell in CELLS if shard.owns(cell.key())]


class TestRegistry:
    def test_get_executor(self):
        assert isinstance(get_executor("serial"), SerialBackend)
        assert get_executor("process", 2).jobs == 2
        assert get_executor("process", None).jobs >= 1

    def test_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("gpu")


class DroppingBackend:
    """A backend that returns without reporting the last cell it got."""

    def run(self, items, on_result):
        SerialBackend().run(items[:-1], on_result)


class TestIncompleteBatch:
    def test_run_cells_refuses_partial_batch(self):
        engine = SimEngine(backend=DroppingBackend())
        with pytest.raises(IncompleteBatchError,
                           match=f"{len(CELLS) - 1} of {len(CELLS)} "):
            engine.run_cells(CELLS)

    def test_execute_cells_refuses_partial_batch(self):
        engine = SimEngine(backend=DroppingBackend())
        with pytest.raises(IncompleteBatchError,
                           match=f"{len(CELLS) - 1} of {len(CELLS)} "):
            engine.execute_cells(CELLS)


class TestShards:
    def test_execute_cells_owns_only_its_slice(self, tmp_path):
        owned = shard_cells(ShardSpec(1, split_spec()))
        assert 0 < len(owned) < len(CELLS)
        store = DiskStore(str(tmp_path / "cache"))
        engine = SimEngine(store=store)
        report = engine.execute_cells(owned)
        assert (report.cached, report.simulated) == (0, len(owned))
        assert engine.counters.simulated == len(owned)
        assert sorted(entry.key for entry in store.entries()) == \
            sorted(cell.key() for cell in owned)

    def test_shard_union_assembles_with_zero_simulations(self, tmp_path):
        count = split_spec()
        cache = str(tmp_path / "cache")
        for k in range(1, count + 1):
            engine = SimEngine(store=DiskStore(cache))
            engine.execute_cells(shard_cells(ShardSpec(k, count)))

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

    def test_execute_skips_stored_cells_without_reading_them(self):
        store = MemoryStore()
        SimEngine(store=store).execute_cells(CELLS)

        def no_reads(key):
            raise AssertionError("execute_cells read a stored result")

        store.get = no_reads
        report = SimEngine(store=store).execute_cells(CELLS)
        assert (report.cached, report.simulated) == (len(CELLS), 0)


class TestExecuteProgress:
    """One callback, campaign totals, uniform across backends."""

    @pytest.mark.parametrize("backend_name", ["serial", "process"])
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

    def test_sharded_progress_counts_only_owned_cells(self, tmp_path,
                                                      capsys):
        """A ``--shard`` run's progress counts its slice of the
        manifest and names the whole campaign."""
        args = ["figure1", "--trace-len", "240", "--seed", "3",
                "--workloads-per-class", "1", "--classes", "MEM2"]
        assert main(["plan", *args]) == 0
        manifest = CampaignManifest.from_json(capsys.readouterr().out)
        owned = len(manifest.filter_shard(ShardSpec(1, 2)))
        assert main([*args, "--shard", "1/2",
                     "--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines
        for line in lines:
            assert re.match(rf"\[figure1\] cell \d+/{owned} \(shard 1/2 "
                            rf"of {len(manifest)}-cell campaign, ", line)
        assert lines[-1].startswith(f"[figure1] cell {owned}/{owned} ")

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
