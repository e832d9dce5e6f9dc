"""Randomized advance-vs-step bit-identity cross-check.

The golden-digest suite pins 16 fixed cells; this suite *fuzzes* the
event-driven fast path beyond them: seeded random workloads across every
thread count and every registered policy run once with cycle skipping on
and once with it off, and the full canonical ``SimResult.to_dict()`` must
be identical — cycle counts, per-thread counters, L2 miss totals, all of
it.  A divergence here means a skip horizon let the fast path jump over a
cycle in which some structure would have acted.

The matrix is deterministic (seeded RNG) so failures reproduce; the
workloads always include at least one MEM-class benchmark so L2-miss
machinery (runahead episodes, MSHR pressure, policy gating) is actually
exercised.  A second pass shrinks the MSHR file to force rejected-load
replay windows — the intra-thread skip case.

Thread counts beyond the 1/2/4 baseline shape (3, 5, 6 and 8 — the
non-power-of-two rotation paths, up to the kernel tier's
``MAX_THREADS``) run the two policies that stress the most per-thread
state, RaT and DCRA, on short traces.
"""

from __future__ import annotations

import random

import pytest

from repro.config import baseline
from repro.core.processor import SMTProcessor
from repro.policies.registry import policy_names
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.trace.generator import generate_trace
from repro.trace.profiles import ilp_benchmarks, mem_benchmarks

#: Seeded deterministically; change the seed only with a reason.
_RNG_SEED = 20260728

THREAD_COUNTS = (1, 2, 4, 3, 5, 6, 8)

#: Thread counts past the baseline shape, and the policies they run.
EXTRA_THREAD_COUNTS = (3, 5, 6, 8)
EXTRA_POLICIES = ("dcra", "rat")


def _random_cells():
    """One (threads, policy, benchmarks, trace_len, seed) cell per
    (thread count, policy) pair, drawn from a fixed-seed RNG."""
    rng = random.Random(_RNG_SEED)
    mem = list(mem_benchmarks())
    ilp = list(ilp_benchmarks())
    cells = []
    for threads in THREAD_COUNTS:
        extra = threads in EXTRA_THREAD_COUNTS
        for policy in EXTRA_POLICIES if extra else policy_names():
            # First slot MEM-class so long-latency misses occur; the rest
            # drawn from the full set.
            names = [rng.choice(mem)]
            names += [rng.choice(mem + ilp) for _ in range(threads - 1)]
            trace_len = rng.randrange(200, 301 if extra else 401, 50)
            seed = rng.randrange(1, 1000)
            cells.append((threads, policy, tuple(names), trace_len, seed))
    return cells


CELLS = _random_cells()


def _run(kernel_tier, policy, benchmarks, trace_len, seed, cycle_skip,
         **config_overrides):
    traces = [generate_trace(name, trace_len, seed) for name in benchmarks]
    config = baseline().with_policy(policy, **config_overrides)
    processor = SMTProcessor(config, traces)
    processor.pipeline.cycle_skip = cycle_skip
    if kernel_tier != "python":
        # In-package policies within MAX_THREADS: a decline here is a
        # generator regression, not a legitimate fallback.
        assert resolve_run_loop(processor.pipeline) is not python_run_loop
    result = processor.run(min_passes=1, max_cycles=200_000)
    return result, processor.pipeline


@pytest.fixture(params=["python", "specialized"])
def kernel_tier(request, monkeypatch):
    """Fuzz each cell under both run-loop tiers (``specialized`` is the
    default ``REPRO_KERNEL``): there the skip-on/skip-off pair exercises
    two *different* generated kernels (the key folds ``skip_enabled``),
    so this doubles as a cross-kernel equivalence check."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_KERNEL", "python")
    else:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    return request.param


@pytest.mark.parametrize(
    "threads,policy,benchmarks,trace_len,seed", CELLS,
    ids=[f"{t}x-{p}-{'+'.join(b)}-len{n}-s{s}"
         for t, p, b, n, s in CELLS])
def test_advance_matches_step(kernel_tier, threads, policy, benchmarks,
                              trace_len, seed):
    stepped, _ = _run(kernel_tier, policy, benchmarks, trace_len, seed,
                      False)
    skipped, pipeline = _run(kernel_tier, policy, benchmarks, trace_len,
                             seed, True)
    assert skipped.to_dict() == stepped.to_dict(), (
        f"cycle-skip divergence: {threads} threads, policy {policy}, "
        f"workload {benchmarks}, trace_len {trace_len}, seed {seed} "
        f"(skipped {pipeline.skipped_cycles} cycles in "
        f"{pipeline.skip_jumps} jumps)")


@pytest.mark.parametrize("policy", ["icount", "stall", "rat"])
def test_advance_matches_step_under_mshr_pressure(kernel_tier, policy):
    """A tiny MSHR file forces rejected-load replay windows, the case the
    intra-thread (memory-wait) skip horizon covers."""
    benchmarks = ("art", "mcf")
    stepped, step_pipe = _run(kernel_tier, policy, benchmarks, 400, 7,
                              False, mshr_entries=2)
    skipped, skip_pipe = _run(kernel_tier, policy, benchmarks, 400, 7,
                              True, mshr_entries=2)
    assert step_pipe.mem.mshr.rejects > 0, (
        "test premise broken: no load was ever rejected; shrink "
        "mshr_entries further")
    assert skipped.to_dict() == stepped.to_dict()
