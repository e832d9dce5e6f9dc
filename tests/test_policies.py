"""Tests for fetch and resource-control policies."""

import pytest

from repro.errors import UnknownPolicyError
from repro.policies import (
    DCRAPolicy,
    FlushPolicy,
    HillClimbingPolicy,
    ICountPolicy,
    MLPAwarePolicy,
    POLICY_NAMES,
    RoundRobinPolicy,
    RunaheadThreadsPolicy,
    StallPolicy,
    create_policy,
)

from repro.testing import SMALL_CONFIG, TraceBuilder, make_processor


def _mem_trace(tail=30):
    builder = TraceBuilder()
    builder.load(9, 0x10000)
    builder.ialu(10, src1=9)
    builder.nops(tail)
    return builder.build()


def _ilp_trace(length=60):
    return TraceBuilder().nops(length).build()


class TestRegistry:
    def test_all_paper_policies_registered(self):
        for name in ("round_robin", "icount", "stall", "flush", "rat",
                     "dcra", "hill", "mlp"):
            assert name in POLICY_NAMES

    def test_create_policy(self):
        policy = create_policy("rat", SMALL_CONFIG)
        assert isinstance(policy, RunaheadThreadsPolicy)
        assert policy.uses_runahead

    def test_unknown_policy_raises(self):
        with pytest.raises(UnknownPolicyError):
            create_policy("magic", SMALL_CONFIG)

    def test_policy_names_sorted(self):
        assert list(POLICY_NAMES) == sorted(POLICY_NAMES)


class TestICount:
    def test_prefers_thread_with_fewer_inflight(self):
        traces = [_ilp_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="icount")
        pipe = cpu.pipeline
        pipe.threads[0].icount = 10
        pipe.threads[1].icount = 2
        assert pipe.policy.fetch_order(0) == [1, 0]

    def test_ties_break_by_thread_id(self):
        traces = [_ilp_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="icount")
        assert cpu.pipeline.policy.fetch_order(0) == [0, 1]


class TestRoundRobin:
    def test_rotates(self):
        traces = [_ilp_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="round_robin")
        policy = cpu.pipeline.policy
        assert isinstance(policy, RoundRobinPolicy)
        assert policy.fetch_order(0) == [0, 1]
        assert policy.fetch_order(1) == [1, 0]

    def test_completes_workload(self):
        traces = [_ilp_trace(), _ilp_trace()]
        result = make_processor(traces, policy="round_robin").run()
        assert all(stats.committed for stats in result.thread_stats)


class TestStall:
    def test_gates_thread_on_l2_miss(self):
        traces = [_mem_trace(), _ilp_trace(200)]
        cpu = make_processor(traces, policy="stall")
        pipe = cpu.pipeline
        detect = (SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency)
        for _ in range(detect + 10):
            pipe.step()
        assert pipe.threads[0].fetch_gated_until > pipe.cycle

    def test_gate_lifts_after_resolve(self):
        traces = [_mem_trace()]
        cpu = make_processor(traces, policy="stall")
        result = cpu.run()
        assert result.thread_stats[0].committed >= len(traces[0])

    def test_memory_thread_fetches_less_than_under_icount(self):
        trace = _mem_trace(tail=100)
        co = _ilp_trace(300)
        stall_run = make_processor([trace, co], policy="stall").run()
        icount_run = make_processor([trace, co], policy="icount").run()
        stall_share = (stall_run.thread_stats[0].fetched
                       / max(1, stall_run.cycles))
        icount_share = (icount_run.thread_stats[0].fetched
                        / max(1, icount_run.cycles))
        assert stall_share <= icount_share + 0.05


class TestFlush:
    def test_flush_squashes_younger_work(self):
        traces = [_mem_trace(tail=60)]
        cpu = make_processor(traces, policy="flush")
        result = cpu.run()
        stats = result.thread_stats[0]
        assert stats.squashed > 0
        assert stats.committed >= len(traces[0])

    def test_flush_refetches_squashed_instructions(self):
        traces = [_mem_trace(tail=60)]
        cpu = make_processor(traces, policy="flush")
        result = cpu.run()
        stats = result.thread_stats[0]
        # Double execution: fetched strictly exceeds trace length.
        assert stats.fetched > len(traces[0])

    def test_flush_releases_rob_entries(self):
        traces = [_mem_trace(tail=60), _ilp_trace(300)]
        cpu = make_processor(traces, policy="flush")
        pipe = cpu.pipeline
        detect = SMALL_CONFIG.dcache.latency + SMALL_CONFIG.l2.latency
        for _ in range(detect + 20):
            pipe.step()
        # After the flush, thread 0 holds only the missing load (and
        # possibly the trigger's older siblings) in the ROB.
        assert len(list(pipe.rob.thread_window(0))) <= 3
        pipe.check_invariants()


class TestDCRA:
    def test_classifies_slow_threads(self):
        traces = [_mem_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="dcra")
        pipe = cpu.pipeline
        policy = pipe.policy
        assert isinstance(policy, DCRAPolicy)
        pipe.threads[0].pending_l2_misses = 1
        assert policy._is_slow(pipe.threads[0])
        assert not policy._is_slow(pipe.threads[1])

    def test_shares_favor_slow_threads(self):
        traces = [_mem_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="dcra")
        policy = cpu.pipeline.policy
        cpu.pipeline.threads[0].pending_l2_misses = 1
        shares = policy._shares([0, 1])
        assert shares[0] > shares[1]
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_gates_over_entitled_thread(self):
        traces = [_mem_trace(tail=100), _ilp_trace(100)]
        cpu = make_processor(traces, policy="dcra")
        result = cpu.run()
        assert all(stats.committed for stats in result.thread_stats)

    def test_inactive_threads_donate_fp_share(self):
        traces = [_mem_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="dcra")
        policy = cpu.pipeline.policy
        policy._refresh_fp_activity()
        assert policy._fp_active == [False, False]


class TestHillClimbing:
    def test_initial_shares_equal(self):
        traces = [_ilp_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="hill")
        policy = cpu.pipeline.policy
        assert isinstance(policy, HillClimbingPolicy)
        assert policy.shares == [0.5, 0.5]

    def test_shares_always_sum_to_one(self):
        traces = [_ilp_trace(200), _mem_trace(tail=100)]
        cpu = make_processor(traces, policy="hill")
        policy = cpu.pipeline.policy
        for _ in range(SMALL_CONFIG.hill_epoch_cycles * 6):
            cpu.step()
            assert sum(policy.shares) == pytest.approx(1.0, abs=1e-6)

    def test_shares_respect_minimum(self):
        traces = [_ilp_trace(200), _mem_trace(tail=100)]
        cpu = make_processor(traces, policy="hill")
        policy = cpu.pipeline.policy
        for _ in range(SMALL_CONFIG.hill_epoch_cycles * 10):
            cpu.step()
        assert min(policy.shares) >= SMALL_CONFIG.hill_min_share - 1e-9

    def test_trial_sweep_cycles_through_threads(self):
        traces = [_ilp_trace(), _ilp_trace()]
        cpu = make_processor(traces, policy="hill")
        policy = cpu.pipeline.policy
        seen_trials = set()
        for _ in range(SMALL_CONFIG.hill_epoch_cycles * 8):
            cpu.step()
            seen_trials.add(policy._trial)
        assert {-1, 0, 1} <= seen_trials


class TestMLPAware:
    def test_gates_after_allowance(self):
        traces = [_mem_trace(tail=200)]
        cpu = make_processor(traces, policy="mlp")
        result = cpu.run()
        assert result.thread_stats[0].committed == len(traces[0])

    def test_predictor_adapts(self):
        cpu = make_processor([_mem_trace()], policy="mlp")
        policy = cpu.pipeline.policy
        assert isinstance(policy, MLPAwarePolicy)
        base = policy._predict(0x100)
        policy._train(0x100, extra_misses=3)
        grown = policy._predict(0x100)
        assert grown > base
        policy._train(0x100, extra_misses=0)
        assert policy._predict(0x100) < grown

    def test_between_stall_and_rat_on_mlp_workload(self):
        # MLP-aware exposes some but not all distant parallelism.
        builder = TraceBuilder()
        for index in range(8):
            builder.load(9 + index % 4, 0x10000 + 0x1000 * index)
            builder.nops(10)
        trace = builder.build()
        stall_cycles = make_processor([trace], policy="stall").run().cycles
        mlp_cycles = make_processor([trace], policy="mlp").run().cycles
        assert mlp_cycles <= stall_cycles + 10


class TestPolicyBase:
    def test_repr(self):
        policy = ICountPolicy(SMALL_CONFIG)
        assert "icount" in repr(policy)

    def test_stall_and_flush_are_icount_subclasses(self):
        assert issubclass(StallPolicy, ICountPolicy)
        assert issubclass(FlushPolicy, ICountPolicy)
        assert issubclass(RunaheadThreadsPolicy, ICountPolicy)
