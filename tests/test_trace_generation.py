"""Tests for the CFG, address streams, profiles and the trace generator."""

import os
import subprocess
import sys

import pytest

from repro.errors import TraceError, UnknownBenchmarkError
from repro.isa import NO_REG, OpClass
from repro.trace.address_space import (
    PointerChaseStream,
    RandomStream,
    StreamMixer,
    StridedStream,
)
from repro.trace.cfg import CODE_SEGMENT_BASE, ControlFlowGraph
from repro.trace.generator import TraceGenerator, generate_trace
from repro.trace.profiles import (
    PROFILES,
    benchmark_names,
    get_profile,
    ilp_benchmarks,
    mem_benchmarks,
)
from repro.trace.rng import Rng


def _rng(seed=7):
    return Rng([seed])


class TestControlFlowGraph:
    def test_blocks_laid_out_sequentially(self):
        cfg = ControlFlowGraph(_rng(), 20, 6, 0.6, 0.1, 5.0)
        pc = CODE_SEGMENT_BASE
        for block in cfg.blocks:
            assert block.start_pc == pc
            pc += block.length * 4
        assert cfg.code_bytes == pc - CODE_SEGMENT_BASE

    def test_minimum_block_length(self):
        cfg = ControlFlowGraph(_rng(), 50, 2, 0.6, 0.1, 5.0)
        assert min(block.length for block in cfg.blocks) >= 2

    def test_targets_in_range(self):
        cfg = ControlFlowGraph(_rng(), 30, 5, 0.5, 0.3, 5.0)
        for block in cfg.blocks:
            assert 0 <= block.taken_target < len(cfg)

    def test_biases_are_probabilities(self):
        cfg = ControlFlowGraph(_rng(), 30, 5, 0.5, 0.3, 5.0)
        for block in cfg.blocks:
            assert 0.0 <= block.taken_bias <= 1.0

    def test_walk_follows_taken_edge(self):
        cfg = ControlFlowGraph(_rng(), 10, 4, 0.6, 0.1, 5.0)
        block = cfg.blocks[0]
        taken, next_block = cfg.walk(_rng(1), block)
        expected = (block.taken_target if taken
                    else cfg.fallthrough(block))
        assert next_block.index == expected

    def test_rejects_single_block(self):
        with pytest.raises(ValueError):
            ControlFlowGraph(_rng(), 1, 4, 0.5, 0.1, 5.0)


class TestAddressStreams:
    def test_strided_advances_by_stride(self):
        stream = StridedStream(_rng(), 0, 1 << 20, 16, sweep_length=10 ** 9)
        first = stream.next_address()
        second = stream.next_address()
        assert second - first == 16

    def test_strided_wraps_region(self):
        stream = StridedStream(_rng(), 0, 256, 64, sweep_length=10 ** 9)
        addresses = {stream.next_address() for _ in range(32)}
        assert all(0 <= a < 256 for a in addresses)

    def test_random_stays_in_region(self):
        stream = RandomStream(_rng(), 0, 4096)
        for _ in range(100):
            assert 0 <= stream.next_address() < 4096

    def test_random_hot_concentration(self):
        stream = RandomStream(_rng(), 0, 1 << 24, hot_fraction=0.001,
                              hot_prob=1.0)
        addresses = [stream.next_address() for _ in range(200)]
        assert max(addresses) - min(addresses) <= (1 << 24) * 0.001 + 64

    def test_chase_node_aligned(self):
        stream = PointerChaseStream(_rng(), 0, 1 << 20, node_bytes=64)
        for _ in range(50):
            assert stream.next_address() % 64 == 0

    def test_chase_is_dependent(self):
        assert PointerChaseStream(_rng(), 0, 4096).dependent
        assert not RandomStream(_rng(), 0, 4096).dependent

    def test_hot_bytes_cap(self):
        stream = RandomStream(_rng(), 0, 1 << 26, hot_fraction=0.5,
                              hot_prob=1.0, hot_bytes_cap=4096)
        addresses = [stream.next_address() for _ in range(200)]
        assert max(addresses) - min(addresses) <= 4096 + 64

    def test_mixer_respects_zero_weight(self):
        only = StridedStream(_rng(), 0, 4096, 8)
        never = RandomStream(_rng(), 0, 4096)
        mixer = StreamMixer(_rng(), [only, never], [1.0, 0.0])
        assert all(mixer.pick() is only for _ in range(50))

    def test_mixer_rejects_bad_weights(self):
        stream = RandomStream(_rng(), 0, 4096)
        with pytest.raises(ValueError):
            StreamMixer(_rng(), [stream], [0.0])

    def test_streams_reject_empty_region(self):
        with pytest.raises(ValueError):
            StridedStream(_rng(), 0, 0, 8)


class TestProfiles:
    def test_all_24_benchmarks_present(self):
        assert len(PROFILES) == 24

    def test_groups_partition_benchmarks(self):
        ilp = set(ilp_benchmarks())
        mem = set(mem_benchmarks())
        assert ilp | mem == set(benchmark_names())
        assert not ilp & mem

    def test_expected_mem_members(self):
        mem = set(mem_benchmarks())
        assert {"mcf", "art", "swim", "twolf", "vpr", "equake",
                "lucas", "parser", "applu", "ammp"} == mem

    def test_unknown_benchmark_raises(self):
        with pytest.raises(UnknownBenchmarkError):
            get_profile("doom")

    def test_mem_working_sets_exceed_l2(self):
        for name in mem_benchmarks():
            assert get_profile(name).working_set_bytes > 1024 * 1024

    def test_ilp_working_sets_cacheable(self):
        for name in ilp_benchmarks():
            assert get_profile(name).working_set_bytes <= 768 * 1024

    def test_mix_fractions_leave_room_for_alu(self):
        for profile in PROFILES.values():
            total = (profile.load_fraction + profile.store_fraction
                     + profile.branch_fraction + profile.fp_fraction
                     + profile.imul_fraction)
            assert 0.0 < total < 1.0

    def test_fp_flag_consistency(self):
        assert get_profile("swim").is_fp
        assert not get_profile("mcf").is_fp
        for profile in PROFILES.values():
            if not profile.is_fp:
                assert profile.fp_fraction == 0.0


class TestGenerator:
    def test_deterministic(self):
        first = TraceGenerator(get_profile("gzip"), 2000, seed=3).generate()
        second = TraceGenerator(get_profile("gzip"), 2000, seed=3).generate()
        assert first.op == second.op
        assert first.addr == second.addr
        assert first.pc == second.pc

    def test_different_seeds_differ(self):
        first = TraceGenerator(get_profile("gzip"), 2000, seed=1).generate()
        second = TraceGenerator(get_profile("gzip"), 2000, seed=2).generate()
        assert first.addr != second.addr

    def test_mix_converges_to_profile(self):
        profile = get_profile("mcf")
        trace = TraceGenerator(profile, 20000, seed=5).generate()
        mix = trace.mix()
        assert mix["load"] == pytest.approx(profile.load_fraction, abs=0.03)
        assert mix["store"] == pytest.approx(profile.store_fraction,
                                             abs=0.03)
        # Branch fraction is structural (block lengths), so it drifts
        # more than the per-visit drawn categories.
        assert mix["branch"] == pytest.approx(profile.branch_fraction,
                                              abs=0.06)

    def test_addresses_within_working_set(self):
        profile = get_profile("twolf")
        trace = TraceGenerator(profile, 5000, seed=1).generate()
        mem_ops = (OpClass.LOAD, OpClass.STORE, OpClass.FLOAD,
                   OpClass.FSTORE)
        assert max(addr for op, addr in zip(trace.op, trace.addr)
                   if op in mem_ops) < profile.working_set_bytes
        assert trace.data_region_bytes == profile.working_set_bytes

    def test_sources_reference_written_registers(self):
        trace = TraceGenerator(get_profile("gcc"), 5000, seed=2).generate()
        written = set()
        for inst in trace:
            for src in (inst.src1, inst.src2):
                if src != NO_REG:
                    assert src in written
            if inst.dest != NO_REG:
                written.add(inst.dest)

    def test_fp_suite_uses_fp_registers(self):
        trace = TraceGenerator(get_profile("swim"), 5000, seed=2).generate()
        fp_ops = (OpClass.FADD, OpClass.FMUL, OpClass.FDIV, OpClass.FLOAD)
        dests = [dest for op, dest in zip(trace.op, trace.dest)
                 if op in fp_ops and dest != NO_REG]
        assert all(dest >= 32 for dest in dests)

    def test_int_suite_has_no_fp(self):
        trace = TraceGenerator(get_profile("mcf"), 5000, seed=2).generate()
        assert trace.mix()["fp"] == 0.0

    def test_rejects_zero_length(self):
        with pytest.raises(TraceError):
            TraceGenerator(get_profile("gzip"), 0)

    def test_generate_trace_memoizes(self):
        first = generate_trace("eon", 1000, 1)
        second = generate_trace("eon", 1000, 1)
        assert first is second

    def test_validates_generated_traces(self):
        for name in ("gzip", "swim", "mcf", "gcc"):
            generate_trace(name, 3000, 9).validate()

    def test_chase_loads_chain_through_registers(self):
        # mcf is chase-heavy: some loads must use a prior load's dest as
        # their address register.
        trace = TraceGenerator(get_profile("mcf"), 5000, seed=4).generate()
        load_dests = set()
        chained = 0
        for inst in trace:
            if inst.op is OpClass.LOAD:
                if inst.src1 in load_dests:
                    chained += 1
                load_dests.add(inst.dest)
        assert chained > 50


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    package; return the last line it prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [entry for entry in [env.get("PYTHONPATH")] if entry])
    completed = subprocess.run([sys.executable, "-c", script],
                               env=env, capture_output=True, text=True,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


#: A fresh interpreter imports the package, generates a trace and runs a
#: 1-thread cell, then lists what it loaded that a cell has no use for:
#: numpy, the campaign layers (every ``repro.sim`` module but the kernel
#: registry ``SMTProcessor.run`` resolves its loop from) and the
#: process-pool stack.
_ONE_CELL = """
import sys
import repro
from repro.trace.generator import generate_trace
trace = generate_trace("mcf", 400, 3)
result = repro.SMTProcessor(repro.baseline().with_policy("icount"),
                            [trace]).run(min_passes=1)
assert result.cycles > 0, result
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "multiprocessing", "hashlib")
             or name.startswith(("repro.experiments", "concurrent.futures"))
             or name.startswith("repro.sim.")
             and name != "repro.sim.kernels"))
"""


def test_a_cell_simulates_without_numpy():
    assert _run_fresh(_ONE_CELL) == "[]"


#: A serial campaign through the CLI: the engine, store and exhibits
#: load, the process-pool stack does not.
_SERIAL_CAMPAIGN = """
import sys
from repro.cli import main
assert main(["figure1", "--trace-len", "300", "--workloads-per-class",
             "1", "--classes", "MEM2", "--no-progress"]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "multiprocessing"
             or name.startswith("concurrent.futures")))
"""


def test_a_serial_campaign_loads_no_process_pool():
    assert _run_fresh(_SERIAL_CAMPAIGN) == "[]"
