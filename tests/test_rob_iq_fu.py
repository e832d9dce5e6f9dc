"""Tests for the shared ROB, issue queues and FU pools."""

import dataclasses

import pytest

from repro.config import baseline
from repro.core.dyninst import DynInst, InstState
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue, MEMORY_WAIT
from repro.core.pipeline import SMTPipeline
from repro.core.rob import SharedROB
from repro.isa import FUKind, OP_FU_BY_CODE, OpClass
from repro.policies.registry import create_policy
from repro.testing import TraceBuilder


def _inst(tid=0, gseq=0, op=OpClass.IALU):
    return DynInst(tid, gseq, gseq, 0, int(op), 0x100 + 4 * gseq, 0, 1, -1,
                   -1, False)


class TestSharedROB:
    def test_append_and_head(self):
        rob = SharedROB(8, 2)
        first = _inst(tid=0, gseq=0)
        rob.append(first)
        rob.append(_inst(tid=1, gseq=0))
        assert next(rob.thread_window(0)) is first
        assert rob._occupancy == 2
        assert [len(list(rob.thread_window(tid))) for tid in (0, 1)] \
            == [1, 1]

    def test_capacity_shared_across_threads(self):
        rob = SharedROB(4, 2)
        for seq in range(3):
            rob.append(_inst(tid=0, gseq=seq))
        assert not rob.is_full()
        rob.append(_inst(tid=1, gseq=0))
        assert rob.is_full()

    def test_pop_head_in_order(self):
        rob = SharedROB(8, 1)
        instrs = [_inst(gseq=seq) for seq in range(3)]
        for inst in instrs:
            rob.append(inst)
        assert rob.pop_head(0) is instrs[0]
        assert rob.pop_head(0) is instrs[1]
        assert rob._occupancy == 1

    def test_squash_younger_returns_youngest_first(self):
        rob = SharedROB(8, 1)
        instrs = [_inst(gseq=seq) for seq in range(5)]
        for inst in instrs:
            rob.append(inst)
        squashed = rob.squash_younger(0, boundary_gseq=1)
        assert [inst.gseq for inst in squashed] == [4, 3, 2]
        assert rob._occupancy == 2

    def test_squash_only_affects_one_thread(self):
        rob = SharedROB(8, 2)
        rob.append(_inst(tid=0, gseq=0))
        rob.append(_inst(tid=1, gseq=0))
        rob.squash_younger(0, -1)
        assert not list(rob.thread_window(0))
        assert list(rob.thread_window(1))

    def test_thread_window_iterates_oldest_first(self):
        rob = SharedROB(8, 1)
        for seq in range(3):
            rob.append(_inst(gseq=seq))
        assert [i.gseq for i in rob.thread_window(0)] == [0, 1, 2]

    def test_check_occupancy(self):
        rob = SharedROB(8, 2)
        rob.append(_inst())
        rob.check_occupancy()


class TestIssueQueue:
    def test_insert_remove_accounting(self):
        queue = IssueQueue("int", 4, 2)
        inst = _inst()
        inst.state = InstState.DISPATCHED
        queue.insert(inst)
        assert queue.size == 1 and queue.per_thread[0] == 1
        queue.remove(inst)
        assert queue.size == 0 and queue.per_thread[0] == 0

    def test_remove_idempotent(self):
        # An entry is held while DISPATCHED <= state <= READY; callers
        # release it before moving the state on, so a second remove
        # (a squash after a fold, say) finds nothing to release.
        queue = IssueQueue("int", 4, 1)
        inst = _inst()
        inst.state = InstState.DISPATCHED
        queue.insert(inst)
        queue.remove(inst)
        inst.state = InstState.COMPLETED
        queue.remove(inst)
        assert queue.size == 0

    def test_is_full_at_capacity(self):
        queue = IssueQueue("int", 1, 1)
        assert not queue.is_full()
        queue.insert(_inst(gseq=0))
        assert queue.is_full()

    def test_take_ready_oldest_first_across_threads(self):
        queue = IssueQueue("int", 8, 2)
        young = _inst(tid=0, gseq=10)
        old = _inst(tid=1, gseq=2)
        for inst in (young, old):
            inst.state = InstState.READY
            queue.mark_ready(inst)
        selected = queue.take_ready(1)
        assert selected == [old]
        # The unselected instruction stays ready for the next cycle.
        assert queue.take_ready(1) == [young]

    def test_take_ready_purges_squashed(self):
        queue = IssueQueue("int", 8, 1)
        dead = _inst(gseq=0)
        dead.state = InstState.SQUASHED
        live = _inst(gseq=1)
        live.state = InstState.READY
        queue.mark_ready(dead)
        queue.mark_ready(live)
        assert queue.take_ready(4) == [live]

    def test_requeue(self):
        queue = IssueQueue("int", 8, 1)
        inst = _inst()
        inst.state = InstState.READY
        queue.requeue(inst)
        assert queue.take_ready(1) == [inst]


class TestNextReadyCycle:
    """The queue's term in the per-structure skip-horizon contract."""

    def test_empty_queue_has_no_wakeup(self):
        queue = IssueQueue("ls", 8, 1)
        assert queue.next_ready_cycle(100) is None

    def test_live_ready_entry_pins_now(self):
        queue = IssueQueue("ls", 8, 1)
        inst = _inst()
        inst.state = InstState.READY
        queue.mark_ready(inst)
        assert queue.next_ready_cycle(100) == 100

    def test_replay_only_defers_to_memory(self):
        queue = IssueQueue("ls", 8, 1)
        inst = _inst(op=OpClass.LOAD)
        inst.state = InstState.READY
        queue.insert(inst)
        queue.requeue(inst, replay=True)
        assert inst.replay
        assert queue.next_ready_cycle(100) == MEMORY_WAIT

    def test_mixed_ready_and_replay_pins_now(self):
        queue = IssueQueue("ls", 8, 2)
        replaying = _inst(tid=0, gseq=0, op=OpClass.LOAD)
        replaying.state = InstState.READY
        queue.insert(replaying)
        queue.requeue(replaying, replay=True)
        issueable = _inst(tid=1, gseq=1)
        issueable.state = InstState.READY
        queue.mark_ready(issueable)
        assert queue.next_ready_cycle(7) == 7

    def test_take_ready_sheds_replay_deferral(self):
        queue = IssueQueue("ls", 8, 1)
        inst = _inst(op=OpClass.LOAD)
        inst.state = InstState.READY
        queue.insert(inst)
        queue.requeue(inst, replay=True)
        selected = queue.take_ready(4)
        assert selected == [inst]
        assert not inst.replay
        assert queue._replay_blocked == 0

    def test_remove_clears_replay_accounting(self):
        # A replaying load squashed while waiting must not leave the
        # queue claiming a memory wait forever.
        queue = IssueQueue("ls", 8, 1)
        inst = _inst(op=OpClass.LOAD)
        inst.state = InstState.READY
        queue.insert(inst)
        queue.requeue(inst, replay=True)
        inst.state = InstState.SQUASHED
        queue.remove(inst)
        assert queue._replay_blocked == 0
        assert queue.next_ready_cycle(3) is None

    def test_stale_only_list_is_cleared(self):
        queue = IssueQueue("int", 8, 1)
        inst = _inst()
        inst.state = InstState.SQUASHED
        queue.mark_ready(inst)
        assert queue.next_ready_cycle(0) is None
        assert queue._ready == []


class TestFUPool:
    def test_budgets_match_table1(self):
        pool = FUPool(6, 3, 4)
        assert pool._capacity[FUKind.INT] == 6
        assert pool._capacity[FUKind.FP] == 3
        assert pool._capacity[FUKind.LDST] == 4

    def test_acquire_consumes_budget(self):
        # The issue stage claims one unit per issued instruction, and
        # selects no more ready instructions than the pool has units.
        pipeline = _pipeline(int_units=2)
        queue = pipeline.queues[0]
        ready = [_ready(pipeline, queue, gseq) for gseq in range(3)]
        pipeline._issue_stage(0)
        assert [inst.state for inst in ready] == [
            InstState.ISSUED, InstState.ISSUED, InstState.READY]
        assert pipeline.fus._available[FUKind.INT] == 0

    def test_new_cycle_refreshes(self):
        pool = FUPool(1, 1, 1)
        pool._available[FUKind.INT] -= 1
        pool.new_cycle()
        assert pool._available == pool._capacity

    def test_pools_independent(self):
        # INT, FP and load/store ops draw on three separate budgets.
        kinds = {OP_FU_BY_CODE[int(op)]
                 for op in (OpClass.IALU, OpClass.FADD, OpClass.LOAD)}
        assert kinds == {FUKind.INT, FUKind.FP, FUKind.LDST}

    def test_branch_uses_int_units(self):
        assert OP_FU_BY_CODE[int(OpClass.BRANCH)] == FUKind.INT
        assert OP_FU_BY_CODE[int(OpClass.IALU)] == FUKind.INT

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            FUPool(0, 1, 1)

    def test_next_release_is_next_cycle(self):
        # Fully-pipelined pools refresh every budget at the next cycle
        # boundary; the horizon must say so regardless of current usage.
        pool = FUPool(1, 1, 1)
        assert pool.next_release_cycle(41) == 42
        pool._available[FUKind.INT] = 0
        assert pool.next_release_cycle(41) == 42


def _pipeline(int_units):
    config = dataclasses.replace(baseline(), int_units=int_units)
    return SMTPipeline(config, [TraceBuilder().nops(4).build()],
                       create_policy("icount", config))


def _ready(pipeline, queue, gseq):
    """A dispatched IALU instruction with its operands ready."""
    inst = _inst(gseq=gseq)
    inst.state = InstState.READY
    pipeline.threads[0].icount += 1
    queue.insert(inst)
    queue.mark_ready(inst)
    return inst
