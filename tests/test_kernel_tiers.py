"""Kernel-tier selection and the specializing tier's machinery.

Bit-identity of the generated kernels is pinned elsewhere (the golden
digests and the advance-vs-step fuzz both run per tier); this module
covers the *selection* machinery: the ``REPRO_KERNEL`` knob, fallback
for uncovered policies (never an error), per-process memoization by
machine shape, per-``run()`` re-resolution of the mutable key folds,
and knob propagation into process-pool workers — plus python-vs-default
parity across the kernel's whole thread range.
"""

from __future__ import annotations

import json

import pytest

from repro.config import KERNEL_ENV_VAR, baseline, kernel_mode
from repro.core.kernel_cache import (cache_info, clear_cache,
                                     specialized_run_loop)
from repro.core.kernel_gen import (MAX_THREADS, kernel_source,
                                   specialization_key)
from repro.core.processor import SMTProcessor
from repro.errors import ConfigError
from repro.policies.icount import ICountPolicy
from repro.policies.registry import policy_names
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.trace.generator import generate_trace


def _processor(policy="icount", benchmarks=("art", "mcf"),
               trace_len=200, **overrides):
    traces = [generate_trace(name, trace_len, 1) for name in benchmarks]
    return SMTProcessor(baseline().with_policy(policy, **overrides),
                        traces)


# --- the environment knob ---------------------------------------------------


def test_kernel_mode_env_values(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert kernel_mode() == "auto"
    for value in ("auto", "python", " PYTHON "):
        monkeypatch.setenv(KERNEL_ENV_VAR, value)
        assert kernel_mode() == value.strip().lower()
    for value in ("fortran", "specialized"):
        monkeypatch.setenv(KERNEL_ENV_VAR, value)
        with pytest.raises(ConfigError):
            kernel_mode()


# --- selection --------------------------------------------------------------


def test_python_mode_forces_portable_loop(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "python")
    processor = _processor()
    assert resolve_run_loop(processor.pipeline) is python_run_loop


def test_auto_selects_specialized_for_covered_shape(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    processor = _processor()
    loop = resolve_run_loop(processor.pipeline)
    assert loop is not python_run_loop
    assert loop.__kernel_key__ == specialization_key(processor.pipeline)


def test_resolution_rereads_mutable_switches(monkeypatch):
    """``cycle_skip`` is a mutable pipeline flag tests flip between
    runs; the key folds it, so re-resolving must yield the matching
    kernel variant, not the memoized first one."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    processor = _processor()
    with_skip = resolve_run_loop(processor.pipeline)
    processor.pipeline.cycle_skip = False
    without_skip = resolve_run_loop(processor.pipeline)
    assert with_skip is not without_skip
    assert with_skip.__kernel_key__.skip_enabled
    assert not without_skip.__kernel_key__.skip_enabled


# --- fallback: a request, never an error ------------------------------------


class OpaqueFetchOrder(ICountPolicy):
    """A third-party policy: overrides a kernel-folded hook outside
    ``repro.policies``, so the generator must refuse coverage."""

    def fetch_order(self, cycle):
        return list(reversed(super().fetch_order(cycle)))


def test_uncovered_policy_falls_back_to_python(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    traces = [generate_trace("art", 200, 1)]
    config = baseline()
    processor = SMTProcessor(config, traces,
                             policy=OpaqueFetchOrder(config))
    assert specialization_key(processor.pipeline) is None
    assert specialized_run_loop(processor.pipeline) is None
    assert resolve_run_loop(processor.pipeline) is python_run_loop
    # ...and the run itself completes: tier selection never errors.
    result = processor.run(min_passes=1, max_cycles=200_000)
    assert result.total_committed > 0


def test_fallback_matches_python_tier(monkeypatch):
    """The fallback is the python tier, bit for bit."""
    results = {}
    for mode in ("python", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, mode)
        traces = [generate_trace("art", 200, 1)]
        config = baseline()
        processor = SMTProcessor(config, traces,
                                 policy=OpaqueFetchOrder(config))
        results[mode] = processor.run(min_passes=1,
                                      max_cycles=200_000).to_dict()
    assert results["python"] == results["auto"]


#: The advance-vs-step suite's thread counts: the 1/2/4 baseline shape
#: plus the non-power-of-two rotations up to MAX_THREADS.
PARITY_THREAD_COUNTS = (1, 2, 4, 3, 5, 6, MAX_THREADS)
PARITY_BENCHMARKS = ("art", "mcf", "gzip", "swim", "twolf", "bzip2",
                     "applu", "eon")


#: (threads, policy, trace length): RaT and DCRA at every thread count,
#: every other registered policy past the 1/2/4 shapes the goldens pin.
PARITY_CELLS = [(threads, policy, 160)
                for threads in PARITY_THREAD_COUNTS
                for policy in ("dcra", "rat")] + [
    (threads, policy, 120)
    for threads in PARITY_THREAD_COUNTS if threads not in (1, 2, 4)
    for policy in policy_names() if policy not in ("dcra", "rat")]


@pytest.mark.parametrize(
    "threads,policy,trace_len", PARITY_CELLS,
    ids=[f"{threads}-{policy}" for threads, policy, _ in PARITY_CELLS])
def test_default_tier_matches_python_across_thread_range(
        monkeypatch, threads, policy, trace_len):
    """The default tier compiles a kernel for every thread count up to
    MAX_THREADS and matches the python tier bit for bit there."""
    results = {}
    for mode in ("python", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, mode)
        processor = _processor(policy, PARITY_BENCHMARKS[:threads],
                               trace_len=trace_len)
        if mode == "auto":
            assert resolve_run_loop(processor.pipeline) \
                is not python_run_loop
        results[mode] = processor.run(min_passes=1,
                                      max_cycles=200_000).to_dict()
    assert results["python"] == results["auto"]


# --- memoization ------------------------------------------------------------


def test_kernels_memoized_per_shape():
    clear_cache()
    first = specialized_run_loop(_processor().pipeline)
    second = specialized_run_loop(_processor().pipeline)
    assert first is second
    assert len(cache_info()) == 1
    # A different machine shape compiles (and caches) a second kernel.
    other = specialized_run_loop(
        _processor(policy="rat", benchmarks=("art",)).pipeline)
    assert other is not first
    assert len(cache_info()) == 2


def test_kernel_source_attached():
    """A compiled kernel carries its key; the key reproduces its source."""
    loop = specialized_run_loop(_processor().pipeline)
    source = kernel_source(loop.__kernel_key__)
    assert "def _kernel_run(" in source
    compile(source, "<kernel-gen>", "exec")  # re-parses


# --- knob propagation into workers ------------------------------------------


def test_process_pool_workers_inherit_kernel_choice(monkeypatch):
    """The tier request travels to process-pool workers via the
    environment; the pooled results must be bit-identical to a serial
    python-tier run."""
    from repro.sim.engine import SimEngine, SweepCell
    from repro.sim.executors import ProcessPoolBackend, SerialBackend
    from repro.sim.runner import RunSpec
    from repro.trace.workloads import Workload

    spec = RunSpec(trace_len=240, seed=3, max_cycles=200_000)
    cells = [
        SweepCell.make(Workload("MEM2", ("art", "mcf")), "icount",
                       spec=spec),
        SweepCell.make(Workload("MEM2", ("art", "mcf")), "rat",
                       spec=spec),
    ]

    def fingerprints(runs):
        return [json.dumps(run.result.to_dict(), sort_keys=True)
                for run in runs]

    monkeypatch.setenv(KERNEL_ENV_VAR, "python")
    reference = fingerprints(
        SimEngine(backend=SerialBackend()).run_cells(cells))
    monkeypatch.setenv(KERNEL_ENV_VAR, "auto")
    pooled = fingerprints(
        SimEngine(backend=ProcessPoolBackend(jobs=2)).run_cells(cells))
    assert pooled == reference
