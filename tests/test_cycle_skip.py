"""Event-driven cycle skipping: engagement, equivalence, edge cases.

The golden-digest suite proves bit-identity on its matrix; these tests
pin the *mechanics*: that idle windows are actually jumped over, that
the deadlock guard fires at the exact cycle the per-cycle model would
have raised it, that runahead exits scheduled inside a skipped window
are honored on time, that no jump starts while an issue-queue entry is
ready, that the FAME cycle cap clamps the jump target, and that unknown
policies with per-cycle behaviour disable the fast path instead of
risking divergence.
"""

from __future__ import annotations

import pytest

from repro.config import baseline
from repro.core.dyninst import InstState
from repro.core.pipeline import _DEADLOCK_WINDOW, SMTPipeline
from repro.core.processor import SMTProcessor
from repro.errors import DeadlockError
from repro.policies.base import FetchPolicy
from repro.policies.registry import create_policy
from repro.trace.generator import generate_trace


def make_pipeline(policy_name="icount", benchmarks=("art", "mcf"),
                  trace_len=600, **config_overrides):
    config = baseline().with_policy(policy_name, **config_overrides)
    traces = [generate_trace(name, trace_len, 1) for name in benchmarks]
    policy = create_policy(policy_name, config)
    return SMTPipeline(config, traces, policy)


def run_pair(policy_name, benchmarks=("art", "mcf"), trace_len=800,
             min_passes=1, max_cycles=2_000_000, **config_overrides):
    """One cell simulated with and without the fast path."""
    outcomes = {}
    for skip in (False, True):
        config = baseline().with_policy(policy_name, **config_overrides)
        traces = [generate_trace(name, trace_len, 1)
                  for name in benchmarks]
        processor = SMTProcessor(config, traces)
        processor.pipeline.cycle_skip = skip
        result = processor.run(min_passes=min_passes,
                               max_cycles=max_cycles)
        outcomes[skip] = (result, processor.pipeline)
    return outcomes


class TestSkipEngagement:
    def test_mem_cell_skips_most_cycles(self):
        outcomes = run_pair("stall")
        result, pipeline = outcomes[True]
        assert pipeline.skip_jumps > 0
        assert pipeline.skipped_cycles > result.cycles // 2
        assert outcomes[False][0].to_dict() == result.to_dict()

    def test_noskip_pipeline_never_jumps(self):
        _, pipeline = run_pair("stall")[False]
        assert pipeline.skip_jumps == 0
        assert pipeline.skipped_cycles == 0

    @pytest.mark.parametrize("policy", ["dcra", "mlp"])
    def test_horizon_policies_skip_and_match(self, policy):
        outcomes = run_pair(policy)
        result, pipeline = outcomes[True]
        assert pipeline.skipped_cycles > 0, (
            f"{policy} declared a skip horizon but never skipped")
        assert outcomes[False][0].to_dict() == result.to_dict()

    def test_step_keeps_single_cycle_semantics(self):
        pipeline = make_pipeline("stall")
        for expected_cycle in range(50):
            assert pipeline.cycle == expected_cycle
            pipeline.step()


class TestDeadlockAcrossSkip:
    def _gate_everything(self, pipeline) -> None:
        for thread in pipeline.threads:
            thread.gate_fetch_until(1 << 40)

    def test_guard_trips_at_exact_cycle(self):
        # An empty, fully fetch-gated machine has no events at all: the
        # only bound on the jump is the deadlock guard itself.
        pipeline = make_pipeline("icount")
        self._gate_everything(pipeline)
        with pytest.raises(DeadlockError) as excinfo:
            for _ in range(10_000):
                pipeline.advance()
        assert excinfo.value.cycle == _DEADLOCK_WINDOW + 1
        assert pipeline.skip_jumps >= 1
        assert pipeline.gstats.cycles == _DEADLOCK_WINDOW + 2

    def test_guard_cycle_matches_stepped_model(self):
        stepped = make_pipeline("icount")
        self._gate_everything(stepped)
        stepped.cycle_skip = False
        with pytest.raises(DeadlockError) as step_err:
            for _ in range(_DEADLOCK_WINDOW + 10):
                stepped.advance()
        skipped = make_pipeline("icount")
        self._gate_everything(skipped)
        with pytest.raises(DeadlockError) as skip_err:
            for _ in range(10_000):
                skipped.advance()
        assert skip_err.value.cycle == step_err.value.cycle
        # Bulk accounting matches the per-cycle model's sampling.
        assert (skipped.gstats.cycles == stepped.gstats.cycles)
        for fast, slow in zip(skipped.threads, stepped.threads):
            assert fast.stats.to_dict() == slow.stats.to_dict()


class TestRunaheadAcrossSkip:
    def test_exit_event_mid_window_is_not_missed(self):
        # stop-fetch-in-runahead gates the runahead thread for the whole
        # episode, so the machine goes quiescent while an exit is
        # pending — the exact case where a careless jump would overshoot
        # the trigger's completion cycle.
        outcomes = run_pair("rat", benchmarks=("mcf",), trace_len=800,
                            rat_stop_fetch_in_runahead=True)
        result, pipeline = outcomes[True]
        stats = result.thread_stats[0]
        assert stats.runahead_episodes > 0
        assert pipeline.skipped_cycles > 0
        assert outcomes[False][0].to_dict() == result.to_dict()

    def test_plain_rat_cell_matches(self):
        outcomes = run_pair("rat", trace_len=600)
        assert (outcomes[False][0].to_dict()
                == outcomes[True][0].to_dict())


class TestMemoryWaitAcrossSkip:
    """Ready loads replaying on a full MSHR file.

    A rejected demand load goes back on its queue's ready list and
    retries every cycle.  Like any live ready entry it pins the skip
    target, so the fast path steps the replay window.
    """

    def test_replay_window_is_skipped_bit_identically(self):
        outcomes = run_pair("icount", trace_len=800, mshr_entries=2)
        stepped, stepped_pipeline = outcomes[False]
        skipped, _ = outcomes[True]
        # Premise: the shrunken file actually rejected demand loads.
        assert stepped_pipeline.mem.mshr.rejects > 0
        assert skipped.to_dict() == stepped.to_dict()

    @pytest.mark.parametrize("policy, config_overrides", [
        ("icount", {"mshr_entries": 2}),
        ("stall", {}),
    ], ids=["icount-mshr2", "stall"])
    def test_no_jump_while_an_entry_is_ready(self, policy,
                                             config_overrides):
        config = baseline().with_policy(policy, **config_overrides)
        traces = [generate_trace(name, 800, 1) for name in ("art", "mcf")]
        processor = SMTProcessor(config, traces)
        pipeline = processor.pipeline
        skip_to = pipeline._skip_to

        def checked_skip_to(start, target):
            ready = [inst for queue in pipeline.queues
                     for inst in queue._ready
                     if inst.state == InstState.READY]
            assert not ready, (
                f"jump {start} -> {target} over ready entries {ready}")
            skip_to(start, target)

        pipeline._skip_to = checked_skip_to
        processor.run()
        if config_overrides:
            # Premise: the shrunken file rejected demand loads.
            assert pipeline.mem.mshr.rejects > 0
        else:
            # Not vacuous: the default-size cell still jumps.
            assert pipeline.skip_jumps > 0

    def test_rat_under_mshr_pressure_matches(self):
        outcomes = run_pair("rat", trace_len=800, mshr_entries=4)
        assert (outcomes[False][0].to_dict()
                == outcomes[True][0].to_dict())


class TestCycleCapAcrossSkip:
    def test_truncated_run_reports_exact_cap(self):
        outcomes = run_pair("stall", benchmarks=("swim", "mcf"),
                            trace_len=600, min_passes=50,
                            max_cycles=3_000)
        for skip in (False, True):
            result, _ = outcomes[skip]
            assert result.truncated
            assert result.cycles == 3_000
        skipping_pipeline = outcomes[True][1]
        assert skipping_pipeline.skip_jumps > 0
        assert (outcomes[False][0].to_dict()
                == outcomes[True][0].to_dict())


class _OpaquePerCyclePolicy(FetchPolicy):
    """Overrides on_cycle without declaring a skip horizon."""

    name = "opaque"

    def on_cycle(self, now: int) -> None:  # pragma: no cover - trivial
        pass


class TestUnknownPolicyGuard:
    def test_on_cycle_without_horizon_disables_skipping(self):
        config = baseline()
        traces = [generate_trace(name, 600, 1) for name in ("art", "mcf")]
        pipeline = SMTPipeline(config, traces,
                               _OpaquePerCyclePolicy(config))
        for _ in range(3_000):
            pipeline.advance()
        assert pipeline.skip_jumps == 0

    def test_builtin_policies_keep_fast_path(self):
        pipeline = make_pipeline("stall")
        assert pipeline._policy_skip_ok
        pipeline = make_pipeline("dcra")
        assert pipeline._policy_skip_ok

    def test_on_cycle_below_inherited_horizon_disables_skipping(self):
        # A subclass changing per-cycle behaviour must not ride on its
        # parent's skip_horizon contract.
        from repro.policies.dcra import DCRAPolicy

        class RogueDCRA(DCRAPolicy):
            name = "rogue-dcra"

            def on_cycle(self, now: int) -> None:  # pragma: no cover
                pass

        config = baseline().with_policy("dcra")
        traces = [generate_trace(name, 400, 1) for name in ("art", "mcf")]
        pipeline = SMTPipeline(config, traces, RogueDCRA(config))
        assert not pipeline._policy_skip_ok

        class RedeclaredDCRA(RogueDCRA):
            def skip_horizon(self, now: int) -> int:  # pragma: no cover
                return now + 1

        pipeline = SMTPipeline(config, traces, RedeclaredDCRA(config))
        assert pipeline._policy_skip_ok
