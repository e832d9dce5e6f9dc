"""Tests for the simulation engine: backends, stores, cache keying.

Acceptance properties (ISSUE 1):

* ``ProcessPoolBackend`` and ``SerialBackend`` produce byte-identical
  results for the same sweep;
* a figure-level sweep run twice against one ``--cache-dir`` performs
  zero simulations the second time;
* a config change busts the cache key.
"""

import dataclasses
import json
import os
import shutil

import pytest

from repro.cli import main
from repro.config import baseline
from repro.core.processor import SimResult
from repro.experiments import figure1
from repro.sim.engine import (
    ProcessPoolBackend,
    SerialBackend,
    SimEngine,
    SweepCell,
    get_engine,
    reference_cell,
    set_engine,
    simulate_cell,
)
from repro.sim.runner import FULL_ENV_VAR, RunSpec
from repro.sim.store import DiskStore, MemoryStore, cache_key
from repro.sim.sweep import sweep_policies
from repro.trace.workloads import Workload

TINY = RunSpec(trace_len=300, seed=3, max_cycles=200_000)

WORKLOAD = Workload("ILP2", ("gzip", "eon"))
MEM_WORKLOAD = Workload("MEM2", ("swim", "art"))


def canonical(result: SimResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def small_sweep(engine):
    return sweep_policies(("icount", "rat"), ("MEM2",), spec=TINY,
                          workloads_per_class=2, engine=engine)


def sweep_fingerprint(sweep, engine) -> str:
    """Canonical bytes of every run + aggregate metric of a sweep."""
    payload = {
        "results": [[canonical(run.result) for run in agg.runs]
                    for agg in sweep.cells.values()],
        "metrics": {
            f"{policy}/{klass}/{name}": repr(
                sweep.metric(policy, klass, name))
            for (policy, klass) in sweep.cells
            for name in ("throughput", "fairness", "executed", "cpi",
                         "ed2")
        },
    }
    return json.dumps(payload, sort_keys=True)


class TestCacheKey:
    def test_key_is_stable(self):
        cell = SweepCell.make(WORKLOAD, "icount", spec=TINY)
        assert cell.key() == cell.key()
        again = SweepCell.make(WORKLOAD, "icount", spec=TINY)
        assert cell.key() == again.key()

    def test_policy_normalized_into_config(self):
        plain = SweepCell.make(WORKLOAD, "rat", baseline(), TINY)
        prepoliced = SweepCell.make(WORKLOAD, "rat",
                                    baseline().with_policy("rat"), TINY)
        assert plain.key() == prepoliced.key()

    def test_config_change_busts_key(self):
        base = SweepCell.make(WORKLOAD, "icount", baseline(), TINY)
        resized = SweepCell.make(WORKLOAD, "icount",
                                 baseline().with_registers(160), TINY)
        assert base.key() != resized.key()

    def test_spec_change_busts_key(self):
        base = SweepCell.make(WORKLOAD, "icount", spec=TINY)
        longer = SweepCell.make(
            WORKLOAD, "icount",
            spec=RunSpec(trace_len=301, seed=3, max_cycles=200_000))
        assert base.key() != longer.key()

    def test_salt_busts_key(self):
        config, spec = baseline(), TINY
        assert (cache_key(WORKLOAD, "icount", config, spec, salt="a")
                != cache_key(WORKLOAD, "icount", config, spec, salt="b"))


#: Cell keys as recorded before the ``to_dict`` encoders stopped going
#: through ``dataclasses.asdict``.  A drift here orphans every DiskStore
#: entry and render-cache document, so the values are pinned, not just
#: compared with each other.
PINNED_KEYS = {
    "mem2-rat":
        "eb4830d530ee6a735e0388f0a51cfd15d996773ead052c1e2be39749fe32a2a0",
    "mem4-icount":
        "ab0ef16d01b43d8cd2df4b0f7f340d9b63f25a52cdbdf1a9b53493aab4b92733",
    "mem2-rat-regs128":
        "fc94ddcda29341d0bb58b7085dd82f3f5bfe4ce61a17d1daba7cfba46161be0b",
    "reference-mcf":
        "18676c766038c3486a50742525ac6e9575cfc2b495183a132181fb9f7db60263",
}


def _pinned_cell(name: str) -> SweepCell:
    mem2 = Workload("MEM2", ("art", "mcf"))
    if name == "mem2-rat":
        return SweepCell.make(mem2, "rat")
    if name == "mem4-icount":
        return SweepCell.make(
            Workload("MEM4", ("applu", "art", "mcf", "twolf")), "icount")
    if name == "mem2-rat-regs128":
        return SweepCell.make(mem2, "rat", baseline().with_registers(128))
    return reference_cell("mcf")


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_cell_key_pinned(name, monkeypatch):
    monkeypatch.delenv(FULL_ENV_VAR, raising=False)
    cell = _pinned_cell(name)
    assert cell.key() == PINNED_KEYS[name]
    # The memoized key is the freshly derived one.
    assert cell.key() == cache_key(cell.workload, cell.policy, cell.config,
                                   cell.spec)


def test_to_dict_matches_asdict():
    config = baseline().with_registers(128).with_policy("rat")
    assert config.to_dict() == dataclasses.asdict(config)
    assert config.l2.to_dict() == dataclasses.asdict(config.l2)
    assert TINY.to_dict() == dataclasses.asdict(TINY)


class TestSerialization:
    def test_simresult_json_roundtrip_is_exact(self):
        result = simulate_cell(SweepCell.make(WORKLOAD, "icount",
                                              spec=TINY))
        restored = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert canonical(restored) == canonical(result)
        assert restored.ipcs == result.ipcs
        assert restored.ed2() == result.ed2()

    def test_config_roundtrip(self):
        config = baseline().with_policy("rat", rat_prefetch=False)
        assert type(config).from_dict(config.to_dict()) == config

    def test_spec_and_workload_roundtrip(self):
        assert RunSpec.from_dict(TINY.to_dict()) == TINY
        assert Workload.from_dict(WORKLOAD.to_dict()) == WORKLOAD


class TestEngineMemo:
    def test_run_workload_returns_same_object(self):
        engine = SimEngine()
        first = engine.run_workload(WORKLOAD, "icount", spec=TINY)
        second = engine.run_workload(WORKLOAD, "icount", spec=TINY)
        assert first is second
        assert engine.counters.simulated == 1

    def test_duplicate_cells_simulated_once(self):
        engine = SimEngine()
        cell = SweepCell.make(MEM_WORKLOAD, "icount", spec=TINY)
        runs = engine.run_cells([cell, cell, cell])
        assert engine.counters.simulated == 1
        assert runs[0] is runs[1] is runs[2]

    def test_default_engine_swap(self):
        engine = SimEngine()
        previous = set_engine(engine)
        try:
            assert get_engine() is engine
        finally:
            set_engine(previous)


class TestBackendDeterminism:
    def test_pool_matches_serial_bit_identical(self):
        serial = SimEngine(backend=SerialBackend())
        pooled = SimEngine(backend=ProcessPoolBackend(jobs=2))
        fp_serial = sweep_fingerprint(small_sweep(serial), serial)
        fp_pooled = sweep_fingerprint(small_sweep(pooled), pooled)
        assert fp_serial == fp_pooled
        assert pooled.counters.simulated > 0

    def test_pool_single_job_falls_back_to_serial(self):
        engine = SimEngine(backend=ProcessPoolBackend(jobs=1))
        run = engine.run_workload(WORKLOAD, "icount", spec=TINY)
        assert run.throughput > 0


class TestBatchTraceGeneration:
    def test_batch_traces_covers_and_dedups(self):
        from repro.sim.engine import batch_traces
        cells = [SweepCell.make(WORKLOAD, "icount", spec=TINY),
                 SweepCell.make(WORKLOAD, "rat", spec=TINY),
                 SweepCell.make(MEM_WORKLOAD, "icount", spec=TINY)]
        traces = batch_traces(cells)
        expected = {(name, TINY.trace_len, TINY.seed)
                    for cell in cells for name in cell.workload.benchmarks}
        assert set(traces) == expected
        for (name, length, _seed), trace in traces.items():
            assert trace.name == name and len(trace) == length

    def test_primed_trace_is_served_verbatim(self):
        import repro.trace.generator as generator
        trace = generator.generate_trace("gzip", 300, seed=3)
        marker = generator.Trace(
            "gzip",
            {key: getattr(trace, key)
             for key in ("op", "dest", "src1", "src2", "addr", "taken",
                         "pc")},
            data_region_bytes=trace.data_region_bytes)
        generator.prime_traces({("gzip", 301, 3): marker})
        try:
            generator.generate_trace.cache_clear()
            assert generator.generate_trace("gzip", 301, 3) is marker
        finally:
            generator._PRIMED.clear()
            generator.generate_trace.cache_clear()

    def test_trace_pickle_roundtrip(self):
        import pickle
        from repro.trace.generator import generate_trace
        trace = generate_trace("gzip", 300, seed=3)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.name == trace.name
        assert clone.data_region_bytes == trace.data_region_bytes
        assert canonical_trace(clone) == canonical_trace(trace)


def canonical_trace(trace) -> str:
    return json.dumps({key: getattr(trace, key)
                       for key in ("op", "dest", "src1", "src2", "addr",
                                   "taken", "pc")})


class TestResultStore:
    def test_second_sweep_performs_zero_simulations(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = SimEngine(store=DiskStore(cache))
        fingerprint = sweep_fingerprint(small_sweep(first), first)
        assert first.counters.simulated > 0

        second = SimEngine(store=DiskStore(cache))
        refingerprint = sweep_fingerprint(small_sweep(second), second)
        assert second.counters.simulated == 0
        assert second.counters.store_hits > 0
        assert refingerprint == fingerprint

    def test_config_change_busts_disk_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = SimEngine(store=DiskStore(cache))
        first.run_workload(WORKLOAD, "icount", spec=TINY)

        second = SimEngine(store=DiskStore(cache))
        second.run_workload(WORKLOAD, "icount",
                            config=baseline().with_registers(160),
                            spec=TINY)
        assert second.counters.simulated == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        engine = SimEngine(store=DiskStore(cache))
        engine.run_workload(WORKLOAD, "icount", spec=TINY)
        for path in (tmp_path / "cache").rglob("*.json"):
            path.write_text("{not json")

        again = SimEngine(store=DiskStore(cache))
        again.run_workload(WORKLOAD, "icount", spec=TINY)
        assert again.counters.simulated == 1

    def test_misfiled_entry_is_a_miss(self, tmp_path):
        """An entry copied under another cell's key (e.g. shard caches
        merged by hand) must not be served as that cell's result."""
        cache = str(tmp_path / "cache")
        cell_a = SweepCell.make(WORKLOAD, "icount", spec=TINY)
        cell_b = SweepCell.make(WORKLOAD, "rat", spec=TINY)
        store = DiskStore(cache)
        store.put(cell_a.key(), simulate_cell(cell_a))
        path_b = store._path(cell_b.key())
        os.makedirs(os.path.dirname(path_b), exist_ok=True)
        shutil.copyfile(store._path(cell_a.key()), path_b)

        fresh = DiskStore(cache)
        assert fresh.get(cell_b.key()) is None
        assert fresh.get(cell_a.key()) is not None
        engine = SimEngine(store=DiskStore(cache))
        [run_a, run_b] = engine.run_cells([cell_a, cell_b])
        assert engine.counters.simulated == 1     # B, re-simulated
        assert engine.counters.store_hits == 1    # A, served
        assert run_b.result.policy == "rat"
        assert canonical(run_b.result) == canonical(simulate_cell(cell_b))
        assert canonical(run_a.result) == canonical(simulate_cell(cell_a))

    @pytest.mark.parametrize("cycles", [12345, "x"],
                             ids=["edited-value", "wrong-type"])
    def test_hand_edited_entry_is_a_miss(self, tmp_path, cycles):
        """An entry edited under its own key fails its checksum: it is
        never served, counts as corrupt, is pruned as stale, and the
        cell re-simulates and overwrites it."""
        cache = str(tmp_path / "cache")
        cell = SweepCell.make(Workload("MEM1", ("mcf",)), "icount",
                              spec=RunSpec(trace_len=300, seed=1))
        original = simulate_cell(cell)
        assert original.cycles == 3025
        DiskStore(cache).put(cell.key(), original)
        path = DiskStore(cache)._path(cell.key())
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["result"]["cycles"] = cycles
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        store = DiskStore(cache)
        assert store.get(cell.key()) is None
        assert [entry.salt for entry in store.entries()] == [None]
        assert store.stats()["by_salt"] == {
            "<corrupt>": {"entries": 1,
                          "bytes": os.path.getsize(path)}}
        assert store.prune(stale_salts=True, dry_run=True).removed == 1

        engine = SimEngine(store=DiskStore(cache))
        rerun = engine.run_cells([cell])[0]
        assert engine.counters.simulated == 1
        assert canonical(rerun.result) == canonical(original)
        served = DiskStore(cache).get(cell.key())
        assert served is not None and served.cycles == 3025

    def test_entry_without_checksum_is_a_miss(self, tmp_path):
        """Entries written before checksums existed miss once."""
        cache = str(tmp_path / "cache")
        cell = SweepCell.make(WORKLOAD, "icount", spec=TINY)
        DiskStore(cache).put(cell.key(), simulate_cell(cell))
        path = DiskStore(cache)._path(cell.key())
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["checksum"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert DiskStore(cache).get(cell.key()) is None

    def test_memory_store_hit_counting(self):
        store = MemoryStore()
        engine = SimEngine(store=store)
        engine.run_workload(MEM_WORKLOAD, "icount", spec=TINY)
        engine._memo.clear()  # force the next lookup through the store
        engine.run_workload(MEM_WORKLOAD, "icount", spec=TINY)
        assert store.hits == 1
        assert engine.counters.simulated == 1


class TestFigureLevelCaching:
    """The ISSUE acceptance criterion, at figure granularity."""

    def test_figure1_second_run_zero_simulations(self, tmp_path):
        cache = str(tmp_path / "cache")
        kwargs = dict(spec=TINY, classes=("MEM2",), workloads_per_class=1)

        first = SimEngine(store=DiskStore(cache))
        result1 = figure1(engine=first, **kwargs)
        assert first.counters.simulated > 0

        second = SimEngine(store=DiskStore(cache))
        result2 = figure1(engine=second, **kwargs)
        assert second.counters.simulated == 0
        assert result2.render() == result1.render()


class TestCLIIntegration:
    ARGS = ["figure1", "--trace-len", "300", "--seed", "3",
            "--workloads-per-class", "1", "--classes", "MEM2",
            "--no-progress"]

    def test_jobs_flag_matches_serial_output(self, tmp_path, capsys):
        assert main(self.ARGS + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        # The exhibit body (everything before the timing line) must be
        # byte-identical between backends.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("[figure1 ")]
        assert strip(pooled_out) == strip(serial_out)
        assert "simulated=" in serial_out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "simulated=0," in second
        assert "simulated=0," not in first
