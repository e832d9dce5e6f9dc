"""Atomic store writes: a crash or race can never leave a torn entry.

Satellite of ISSUE 5: N sharded executors share one ``--cache-dir``, so
the invariant is that a reader observes a complete entry or no entry —
never partial JSON.  Writes go to a same-directory temp file and land
via ``os.replace``; these tests pin the crash-mid-write behaviour for
the result store and the exhibit-render cache.
"""

import json
import os

import pytest

from repro.sim.engine import SimEngine, SweepCell, simulate_cell
from repro.sim.runner import RunSpec
from repro.sim.store import (DiskStore, ExhibitRenderCache,
                             atomic_write_json)
from repro.trace.workloads import Workload

TINY = RunSpec(trace_len=200, seed=3, max_cycles=200_000)
CELL = SweepCell.make(Workload("ILP2", ("gzip", "eon")), "icount",
                      spec=TINY)


@pytest.fixture(scope="module")
def result():
    return simulate_cell(CELL)


def tree(root):
    files = []
    for dirpath, _dirnames, filenames in os.walk(root):
        files.extend(os.path.join(dirpath, name) for name in filenames)
    return files


class TestAtomicWriteJson:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.load(open(path)) == {"v": 2}
        assert tree(tmp_path) == [path]  # no temp residue

    def test_crash_at_replace_leaves_no_file(self, tmp_path,
                                             monkeypatch):
        path = str(tmp_path / "doc.json")

        def exploding_replace(_src, _dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_json(path, {"v": 1})
        monkeypatch.undo()
        assert tree(tmp_path) == []  # neither doc nor temp survives

    def test_crash_mid_serialization_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert tree(tmp_path) == []


class TestDiskStoreCrashMidWrite:
    def test_crash_before_replace_is_a_miss_not_a_torn_entry(
            self, tmp_path, monkeypatch, result):
        cache = str(tmp_path / "cache")
        store = DiskStore(cache)

        def exploding_replace(_src, _dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", exploding_replace)
        store.put(CELL.key(), result)  # best-effort: must not raise
        monkeypatch.undo()

        # Nothing half-written is visible anywhere on disk.
        assert tree(cache) == []
        fresh = DiskStore(cache)
        assert fresh.get(CELL.key()) is None
        assert len(fresh) == 0

        # The writing process itself still holds the result in memory —
        # a persistence failure must not lose work already in hand.
        assert store.get(CELL.key()) is not None

        # And a later healthy write fully recovers the entry.
        fresh.put(CELL.key(), result)
        recovered = DiskStore(cache).get(CELL.key())
        assert recovered is not None
        assert recovered.to_dict() == result.to_dict()

    def test_hard_kill_leftover_tmp_is_invisible(self, tmp_path, result):
        # A writer killed before os.replace leaves only a *.tmp orphan.
        # Emulate that exact on-disk state and check every reader path
        # ignores it.
        cache = str(tmp_path / "cache")
        store = DiskStore(cache)
        store.put(CELL.key(), result)
        fanout = os.path.dirname(store._path(CELL.key()))
        with open(os.path.join(fanout, "deadbeef.tmp"), "w") as handle:
            handle.write('{"key": "deadbeef", "result": {"trunc')

        fresh = DiskStore(cache)
        assert len(fresh) == 1
        assert [entry.key for entry in fresh.entries()] == [CELL.key()]
        assert fresh.stats()["entries"] == 1
        assert fresh.get(CELL.key()) is not None

    def test_concurrent_stores_same_key_stay_complete(self, tmp_path,
                                                      result):
        # Two engines (processes) racing on one key: whoever lands last,
        # the entry is always complete and readable.
        cache = str(tmp_path / "cache")
        DiskStore(cache).put(CELL.key(), result)
        DiskStore(cache).put(CELL.key(), result)
        engine = SimEngine(store=DiskStore(cache))
        run = engine.run_cells([CELL])[0]
        assert engine.counters.simulated == 0
        assert run.result.to_dict() == result.to_dict()


class TestExhibitRenderCacheAtomicity:
    DOCUMENT = {"exhibit": "Figure 1", "title": "t", "data": {},
                "sections": []}

    def test_round_trip(self, tmp_path):
        cache = ExhibitRenderCache(str(tmp_path / "exhibits"))
        cache.put("a" * 64, self.DOCUMENT)
        assert cache.get("a" * 64) == self.DOCUMENT
        assert len(cache) == 1
        assert cache.hits == 1 and cache.puts == 1

    def test_crash_mid_write_is_a_miss(self, tmp_path, monkeypatch):
        cache = ExhibitRenderCache(str(tmp_path / "exhibits"))

        def exploding_replace(_src, _dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", exploding_replace)
        cache.put("b" * 64, self.DOCUMENT)  # best-effort: must not raise
        monkeypatch.undo()
        assert tree(tmp_path) == []
        assert cache.get("b" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        root = str(tmp_path / "exhibits")
        cache = ExhibitRenderCache(root)
        with open(os.path.join(root, "c" * 64 + ".json"), "w") as handle:
            handle.write('{"result": {"trunc')
        assert cache.get("c" * 64) is None
        assert cache.misses == 1

