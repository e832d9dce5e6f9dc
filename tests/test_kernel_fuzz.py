"""Python-vs-default tier parity over randomized kernel shapes.

The goldens and the thread-range parity test run the default core
config, so most of the literals the kernel generator folds into a
compiled loop (widths, capacities, FU counts, cache latencies) are only
ever checked at one value.  This suite draws every numeric
:class:`~repro.core.kernel_gen.KernelKey` axis from a seeded RNG within
:meth:`SMTConfig.validate <repro.config.SMTConfig.validate>` bounds
(cache latencies start at 1: a zero-latency load completes in the cycle
it issued, so both tiers stop committing alike and run to the cycle
cap), plus the flag folds no other parity test reaches — RaT without FP
invalidation, without prefetching, with fetch stopped in runahead — and
the 7-thread shape.

Each cell runs once under the python tier and once under the default
tier; the default tier must not fall back, and the full
``SimResult.to_dict()`` (or the raised error) must be identical.  A
failure names the :class:`KernelKey` it ran.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import KERNEL_ENV_VAR, baseline
from repro.core.kernel_gen import MAX_THREADS, specialization_key
from repro.core.processor import SMTProcessor
from repro.errors import SimulationError
from repro.policies.registry import policy_names
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.trace.generator import generate_trace
from repro.trace.profiles import ilp_benchmarks, mem_benchmarks

#: Seeded deterministically; change the seed only with a reason.
_RNG_SEED = 20261017

_DRAWS = 24
_TRACE_LEN = 400


def _draw_overrides(rng: random.Random) -> dict:
    """Every numeric axis the generator folds, drawn within validate()."""
    width = rng.randint(1, 8)
    base = baseline()
    return {
        "width": width,
        "fetch_threads": rng.randint(1, 4),
        "fetch_buffer_size": rng.randint(1, 48),
        "rob_size": rng.randint(width, 256),
        "int_iq_size": rng.randint(1, 64),
        "fp_iq_size": rng.randint(1, 64),
        "ls_iq_size": rng.randint(1, 64),
        "int_units": rng.randint(1, 6),
        "fp_units": rng.randint(1, 6),
        "ldst_units": rng.randint(1, 6),
        "icache": dataclasses.replace(base.icache,
                                      latency=rng.randint(1, 4)),
        "dcache": dataclasses.replace(base.dcache,
                                      latency=rng.randint(1, 6)),
        "l2": dataclasses.replace(base.l2, latency=rng.randint(1, 30)),
    }


def _cells():
    rng = random.Random(_RNG_SEED)
    mem = list(mem_benchmarks())
    everything = mem + list(ilp_benchmarks())
    policies = policy_names()

    def workload(threads):
        return (rng.choice(mem),) + tuple(
            rng.choice(everything) for _ in range(threads - 1))

    cells = []
    for index in range(_DRAWS):
        threads = rng.randint(1, 4)
        # Every policy at least once, RaT on every other draw.
        policy = "rat" if index % 2 else policies[index // 2 % len(policies)]
        cells.append((f"draw{index}", policy, workload(threads),
                      rng.randrange(1, 1000), _draw_overrides(rng)))
    # Flag folds no other parity test reaches.
    for label, flags in (
            ("rat-no-fp-inval", {"rat_fp_invalidation": False}),
            ("rat-no-prefetch", {"rat_prefetch": False}),
            ("rat-stop-fetch", {"rat_stop_fetch_in_runahead": True})):
        cells.append((label, "rat", workload(2), rng.randrange(1, 1000),
                      dict(_draw_overrides(rng), **flags)))
    cells.append(("rat-7-threads", "rat", workload(7),
                  rng.randrange(1, 1000), {}))
    return cells


CELLS = _cells()


def _run(tier, policy, benchmarks, seed, overrides):
    traces = [generate_trace(name, _TRACE_LEN, seed) for name in benchmarks]
    config = baseline().with_policy(policy, **overrides)
    processor = SMTProcessor(config, traces)
    key = specialization_key(processor.pipeline)
    if tier == "auto":
        assert key is not None and len(benchmarks) <= MAX_THREADS
        assert resolve_run_loop(processor.pipeline) is not python_run_loop, \
            f"default tier fell back for {key}"
    try:
        outcome = processor.run(min_passes=1, max_cycles=150_000).to_dict()
    except SimulationError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return key, outcome


@pytest.mark.parametrize("label,policy,benchmarks,seed,overrides", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_default_tier_matches_python_on_drawn_shape(monkeypatch, label,
                                                    policy, benchmarks,
                                                    seed, overrides):
    outcomes = {}
    for tier in ("python", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, tier)
        key, outcomes[tier] = _run(tier, policy, benchmarks, seed,
                                   overrides)
    assert outcomes["python"] == outcomes["auto"], \
        f"tiers diverge for {policy} {benchmarks} under {key}"


def test_draws_cover_every_folded_flag():
    """The matrix reaches both values of every flag the kernel folds."""
    keys = []
    for _label, policy, benchmarks, _seed, overrides in CELLS:
        traces = [generate_trace(name, 50, 1) for name in benchmarks]
        processor = SMTProcessor(
            baseline().with_policy(policy, **overrides), traces)
        keys.append(specialization_key(processor.pipeline))
    for flag in ("uses_runahead", "ra_fp_inval", "has_on_cycle"):
        assert {getattr(key, flag) for key in keys} == {False, True}, flag
    assert {key.num_threads for key in keys} >= {1, 2, 3, 4, 7}
    assert len({key.width for key in keys}) >= 4
