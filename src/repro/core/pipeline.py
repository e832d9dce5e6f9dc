"""The SMT pipeline: fetch, dispatch, issue, complete, commit.

One :class:`SMTPipeline` simulates the whole machine cycle by cycle.  The
stage order inside :meth:`step` is back-to-front (completions and commit
before issue, issue before dispatch, dispatch before fetch) so every stage
observes the previous cycle's downstream state, as a real pipeline would.

Wakeup is event-driven (see :mod:`repro.core.issue_queue`), and memory and
execution latencies are carried by a cycle-indexed event table rather than
per-cycle scans, which keeps the Python model fast enough for full Table 2
sweeps.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..branch import BranchTargetBuffer, PerceptronPredictor
from ..config import SMTConfig
from ..errors import DeadlockError, SimulationError
from ..isa import (
    IS_FP_BY_CODE,
    NO_REG,
    NUM_INT_ARCH_REGS,
    OP_FU_BY_CODE,
    OP_LATENCY_BY_CODE,
    OP_QUEUE_BY_CODE,
    OpClass,
)
from ..mem import MemoryHierarchy
from ..trace.trace import Trace
from .dyninst import DynInst, InstState
from .fu import FUPool
from .hookspec import horizon_covers_on_cycle
from .issue_queue import IssueQueue
from .regfile import PhysRegFile
from .rename import RenameState
from .rob import SharedROB
from .runahead import RunaheadController
from .stats import GlobalStats
from .thread import ThreadContext, ThreadMode

#: Event kinds in the cycle-indexed event table.
_EV_COMPLETE = 0
_EV_L2_DETECT = 1

#: Raw op code of SYNC (hot decode-drop test).
_SYNC_CODE = int(OpClass.SYNC)

#: Hoisted enum members / constants for the per-instruction hot paths
#: (module-level loads are one LOAD_GLOBAL; enum attribute chains are not).
_RUNAHEAD = ThreadMode.RUNAHEAD
_NORMAL = ThreadMode.NORMAL
_DISPATCHED = InstState.DISPATCHED
_READY = InstState.READY
_ISSUED = InstState.ISSUED
_COMPLETED = InstState.COMPLETED
_RETIRED = InstState.RETIRED
_SQUASHED = InstState.SQUASHED
#: Arch registers below this are INT (klass 0), at/above it FP (klass 1);
#: equivalent to reg_class() without the enum construction.
_NINT = NUM_INT_ARCH_REGS


#: Cycles without a single commit before the deadlock guard trips.
_DEADLOCK_WINDOW = 100_000


class SMTPipeline:
    """Cycle-level model of the Table 1 SMT processor."""

    def __init__(self, config: SMTConfig, traces: List[Trace],
                 policy) -> None:
        config.validate()
        if not traces:
            raise SimulationError("at least one thread trace is required")
        if len(traces) > config.max_threads():
            raise SimulationError(
                f"{len(traces)} threads need "
                f"{len(traces) * 32} architectural registers per file; "
                f"config provides {config.int_regs}/{config.fp_regs}")
        self.config = config
        self.num_threads = len(traces)
        self.cycle = 0
        self.gstats = GlobalStats()

        self.int_file = PhysRegFile("int", config.int_regs)
        self.fp_file = PhysRegFile("fp", config.fp_regs)
        self.rob = SharedROB(config.rob_size, self.num_threads)
        self.queues = (
            IssueQueue("int", config.int_iq_size, self.num_threads),
            IssueQueue("fp", config.fp_iq_size, self.num_threads),
            IssueQueue("ls", config.ls_iq_size, self.num_threads),
        )
        self.fus = FUPool(config.int_units, config.fp_units,
                          config.ldst_units)
        self.mem = MemoryHierarchy(config, self.num_threads)
        # I-cache line index as a shift when line size is a power of two
        # (the fetch loop computes it per instruction); -1 falls back to
        # division.
        iline = config.icache.line_bytes
        self._iline_shift = (iline.bit_length() - 1
                             if iline & (iline - 1) == 0 else -1)
        #: Hot config scalars, hoisted once (SMTConfig is treated as
        #: immutable after construction): these are read per cycle or per
        #: instruction in the stage loops.
        self._width = config.width
        self._fetch_threads = config.fetch_threads
        self._fetch_buffer_size = config.fetch_buffer_size
        self._iline_bytes = iline
        self._icache_latency = config.icache.latency
        self._dcache_latency = config.dcache.latency
        self._l2_detect_latency = config.dcache.latency + config.l2.latency
        self.predictor = PerceptronPredictor(
            config.predictor_entries, config.predictor_history,
            self.num_threads)
        self.btb = BranchTargetBuffer(config.btb_entries)

        self.threads: List[ThreadContext] = []
        cacheable_limit = int(0.75 * config.l2.size_bytes)
        for tid, trace in enumerate(traces):
            rename = RenameState(tid, self.int_file, self.fp_file)
            shift = trace.data_region_bytes > cacheable_limit
            self.threads.append(ThreadContext(tid, trace, rename,
                                              pass_shift=shift))
            # Architectural state occupies registers from cycle 0.
            self.threads[tid].regs_held = [32, 32]
        #: Precomputed commit/dispatch round-robin orders: rotation r is
        #: the thread list starting at thread r.  Replaces two modulo
        #: operations and a range allocation per stage per cycle.
        self._rotations = tuple(
            tuple(self.threads[(first + offset) % self.num_threads]
                  for offset in range(self.num_threads))
            for first in range(self.num_threads))

        self.runahead = RunaheadController(self)
        self.policy = policy
        #: Hoisted for the commit/dispatch/skip hot paths (both are
        #: fixed at construction, never mutated at run time).
        self._uses_runahead = policy.uses_runahead
        self._ra_fp_inval = self.runahead.fp_invalidation
        policy.attach(self)

        self._events: Dict[int, List[Tuple[int, DynInst]]] = {}
        #: Min-heap of the event table's cycle keys (one push per bucket
        #: creation; stale keys are lazily popped).  Keeps the next-event
        #: query O(log n) instead of a full dict scan per quiescence
        #: check.
        self._event_heap: List[int] = []
        self._gseq = 0
        self._last_commit_cycle = 0
        self._fold_worklist: List[DynInst] = []

        #: Event-driven cycle skipping (see :meth:`advance`).  On by
        #: default; benchmarks flip it off to time the per-cycle model.
        self.cycle_skip = True
        self.skipped_cycles = 0   # idle cycles jumped over, bulk-accounted
        self.skip_jumps = 0       # number of jumps taken
        # A policy with per-cycle behaviour (an on_cycle override) must
        # declare its wakeups via skip_horizon, or skipping would jump
        # over cycles it needed to observe; unknown policies therefore
        # disable the fast path rather than risk divergence.  The check
        # is MRO-aware (see repro.core.hookspec, shared with the static
        # hook-conformance lint rule): a subclass overriding on_cycle
        # below an inherited skip_horizon gets the fast path disabled
        # too — the parent's horizon says nothing about the child's
        # behaviour.
        from ..policies.base import FetchPolicy
        policy_type = type(policy)
        overrides_on_cycle = policy_type.on_cycle is not FetchPolicy.on_cycle
        self._policy_has_horizon = (policy_type.skip_horizon
                                    is not FetchPolicy.skip_horizon)
        self._policy_skip_ok = horizon_covers_on_cycle(policy_type)
        # Avoid a no-op bound-method call per cycle for the many policies
        # that never override on_cycle.
        self._policy_on_cycle = policy.on_cycle if overrides_on_cycle else None

        # The per-thread fetch address columns (thread-offset PC and its
        # i-cache line) are precomputed — numpy vector ops, then one list
        # per thread — so the fetch loop does a plain subscript instead of
        # an add and a shift per fetched instruction.
        shift = self._iline_shift
        for thread in self.threads:
            pcs_off = thread.trace.pc + thread.code_offset
            lines = (pcs_off >> shift if shift >= 0
                     else pcs_off // self._iline_bytes)
            thread.pcs_off = pcs_off.tolist()
            thread.fetch_lines = lines.tolist()

    # ------------------------------------------------------------------ cycle

    def step(self) -> None:
        """Advance the machine by one cycle."""
        now = self.cycle
        self.fus.new_cycle()
        self._process_events(now)
        if self._policy_on_cycle is not None:
            self._policy_on_cycle(now)
        self._commit_stage(now)
        self._issue_stage(now)
        self._dispatch_stage(now)
        self._fetch_stage(now)
        self._sample_stats()
        self.cycle = now + 1
        if now - self._last_commit_cycle > _DEADLOCK_WINDOW:
            raise DeadlockError(now, "no instruction committed recently")

    # ------------------------------------------------------- cycle skipping

    def advance(self, limit: Optional[int] = None) -> None:
        """One :meth:`step`, then jump over provably idle cycles.

        After the stepped cycle, if the machine is *quiescent* — no
        issue-queue entry can issue, no ROB head is completed, no thread
        can fetch or dispatch, and the policy declares no wakeup — then
        nothing can happen until the earliest of the per-structure
        wakeup horizons :meth:`_skip_target` folds together: the next
        entry in the cycle-indexed event table, a fetch gate expiring, a
        runahead exit falling due, or the policy's
        :meth:`~repro.policies.base.FetchPolicy.skip_horizon`.
        ``self.cycle`` jumps straight there, with the per-cycle
        statistics (register-occupancy samples, runahead cycles, the
        cycle count) bulk-accounted so results are
        bit-identical to stepping every cycle (see
        ``tests/test_golden_digest.py``).  Windows *inside* a busy
        thread are skippable too: a thread waiting out its runahead
        trigger contributes a wakeup cycle instead of pinning the
        machine to per-cycle stepping.  A demand load retrying against a
        full MSHR file is a live ready entry, so its replay window is
        stepped.

        ``limit`` clamps the jump target (the FAME runner passes its
        ``max_cycles`` cap so truncated runs report the same cycle
        count).  The deadlock guard also clamps the target, so a truly
        dead machine still raises :class:`DeadlockError` at the exact
        cycle the per-cycle model would have.

        :meth:`step` keeps strict one-cycle semantics for tests and
        debugging; this is the loop the FAME runner drives.
        """
        if not (self.cycle_skip and self._policy_skip_ok):
            self.step()
            return
        gseq_before = self._gseq
        gstats = self.gstats
        committed_before = gstats.committed
        self.step()
        # Activity precheck: a cycle that fetched, issued (spent an FU
        # budget) or committed anything cannot open an idle window, so
        # skip the full quiescence scan (the overwhelmingly common case
        # while busy).
        fus = self.fus
        if (self._gseq != gseq_before
                or gstats.committed != committed_before
                or fus._available != fus._capacity):
            return
        start = self.cycle
        target = self._skip_target(start, limit)
        if target > start:
            self._skip_to(start, target)

    def _skip_target(self, start: int, limit: Optional[int]) -> int:
        """Latest cycle before which provably nothing can happen.

        Returns ``start`` when any structure could act next cycle (the
        machine is not quiescent).

        Quiescence is decided structure by structure, and every structure
        that can wake the machine *clamps* the jump target with its own
        horizon rather than vetoing the skip outright:

        * the issue queues (:meth:`IssueQueue.next_ready_cycle
          <repro.core.issue_queue.IssueQueue.next_ready_cycle>`) — any
          live ready entry, a load replaying against a full MSHR file
          included, pins ``start``;
        * per-thread fetch gates, runahead exits and runahead-entry
          eligibility at the window heads;
        * the cycle-indexed event table (completions / L2 detections),
          via a lazily-pruned min-heap of its keys;
        * the policy's :meth:`~repro.policies.base.FetchPolicy.
          skip_horizon`.

        The FU pools need no clamp term here: they are fully pipelined
        (budgets refresh next cycle), and a pool can only be exhausted
        on a cycle that issued instructions — which the activity
        precheck in :meth:`advance` already refuses to skip.
        """
        if self._fold_worklist:
            return start
        for queue in self.queues:
            if queue.next_ready_cycle(start) is not None:
                return start            # issueable entry next cycle

        bound = self._last_commit_cycle + _DEADLOCK_WINDOW + 1
        if limit is not None and limit < bound:
            bound = limit
        uses_runahead = self._uses_runahead
        rob_windows = self.rob._queues   # read-only peek at the heads
        buffer_size = self._fetch_buffer_size
        for thread in self.threads:
            # Ordered by how often a busy machine bails on each test.
            if len(thread.fetch_queue) < buffer_size:
                fetchable_at = thread.fetch_blocked_until
                if thread.fetch_gated_until > fetchable_at:
                    fetchable_at = thread.fetch_gated_until
                if fetchable_at <= start:
                    return start            # fetch possible this cycle
                if fetchable_at < bound:
                    bound = fetchable_at
            window = rob_windows[thread.tid]
            if window:
                head = window[0]
                if head.state == _COMPLETED:
                    return start            # commit / pseudo-retire due
                if (head.l2_miss and uses_runahead   # cheap prefilter
                        and thread.mode is _NORMAL
                        and self.runahead.should_enter(thread, head, start)):
                    return start            # runahead entry due
            if thread.mode is _RUNAHEAD:
                ready = thread.runahead_trigger_ready
                if ready <= start:
                    return start            # exit falls due this cycle
                if ready < bound:
                    bound = ready
            if thread.fetch_queue and not self._dispatch_blocked(thread):
                return start                # dispatch possible this cycle
        next_event = self._next_event_cycle()
        if next_event is not None:
            if next_event <= start:
                return start                # defensive; events are future
            if next_event < bound:
                bound = next_event
        if self._policy_has_horizon:
            horizon = self.policy.skip_horizon(start)
            if horizon is not None:
                if horizon <= start:
                    return start            # policy acts this cycle
                if horizon < bound:
                    bound = horizon
        return bound

    def _dispatch_blocked(self, thread: ThreadContext) -> bool:
        """Would the thread's next dispatch fail for an event-stable reason?

        Tests :meth:`_dispatch`'s stall conditions through the same
        helpers.  Each blocking resource (ROB entries, issue-queue
        entries, rename registers) can only be released by a completion
        event, a runahead exit, or a policy wakeup — all of which clamp
        the skip target — so a blocked verdict holds for the whole
        skipped window.
        """
        if self.rob.is_full():
            return True
        inst = thread.fetch_queue[0]
        op = inst.op
        if self._drops_at_decode(thread, op):
            return False   # decode-drop needs only a ROB slot: would proceed
        if self.queues[OP_QUEUE_BY_CODE[op]].is_full():
            return True
        dest_arch = inst.dest_arch
        if dest_arch == NO_REG:
            return False
        file = self.int_file if dest_arch < _NINT else self.fp_file
        return file.is_full()

    def _skip_to(self, start: int, target: int) -> None:
        """Jump from ``start`` to ``target``, bulk-accounting the idle
        cycles exactly as ``target - start`` no-op steps would have.
        """
        k = target - start
        for thread in self.threads:
            held = thread.regs_held[0] + thread.regs_held[1]
            stats = thread.stats
            if thread.in_runahead:
                stats.runahead_cycles += k
                stats.runahead_reg_samples += k
                stats.runahead_regs_held += k * held
            else:
                stats.normal_reg_samples += k
                stats.normal_regs_held += k * held
        self.gstats.cycles += k
        self.skipped_cycles += k
        self.skip_jumps += 1
        self.cycle = target

    # --------------------------------------------------------------- events

    def schedule(self, cycle: int, kind: int, inst: DynInst) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [(kind, inst)]
            # One heap push per *bucket*, not per event: the dict key is
            # the dedup, so the heap stays no larger than the live (plus
            # recently-drained) cycle set.
            heappush(self._event_heap, cycle)
        else:
            bucket.append((kind, inst))

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest cycle with a pending event bucket, or None.

        Keys whose bucket has already been drained are popped lazily
        here, so the query costs O(log n) amortized instead of the
        ``min(dict)`` scan it replaces.
        """
        heap = self._event_heap
        events = self._events
        while heap:
            cycle = heap[0]
            if cycle in events:
                return cycle
            heappop(heap)
        return None

    def _process_events(self, now: int) -> None:
        events = self._events
        bucket = events.pop(now, None)
        # Prune heap keys for already-drained buckets as the cycle
        # counter passes them (amortized O(1) per cycle).  Without this,
        # busy runs — which never reach the quiescence-path pruning in
        # _next_event_cycle — would retain one stale key per event cycle
        # for the whole run.
        heap = self._event_heap
        while heap and heap[0] <= now and heap[0] not in events:
            heappop(heap)
        if not bucket:
            return
        for kind, inst in bucket:
            state = inst.state
            if state == _SQUASHED or state == _RETIRED:
                continue
            if kind == _EV_COMPLETE:
                if state == _ISSUED:
                    self._complete(inst, now)
            elif kind == _EV_L2_DETECT:
                self._on_l2_detected(inst, now)
        if self._fold_worklist:
            self._drain_folds(now)

    def _complete(self, inst: DynInst, now: int) -> None:
        """An issued instruction produces its result, valid or INV: its
        consumers wake, an INV runahead destination is recycled at once
        (§3.3), and a mispredicted branch redirects fetch."""
        inst.state = _COMPLETED
        thread = self.threads[inst.tid]
        if inst.l2_counted:
            inst.l2_counted = False
            thread.pending_l2_misses -= 1
        preg = inst.pdest
        if preg != NO_REG:
            invalid = inst.invalid
            file = self.int_file if inst.dest_arch < _NINT else self.fp_file
            for waiter in file.set_ready(preg, now, invalid):
                self._src_ready(waiter, now, preg, invalid)
            if invalid and thread.mode is _RUNAHEAD:
                self._recycle_runahead_dest(thread, inst)
        if inst.is_branch and not inst.invalid and inst.mispredicted:
            self._resolve_misprediction(inst, now)

    def _on_l2_detected(self, inst: DynInst, now: int) -> None:
        """A demand load has been discovered to miss in the L2 cache."""
        inst.l2_miss = True
        inst.l2_counted = True
        thread = self.threads[inst.tid]
        thread.pending_l2_misses += 1
        self.policy.on_l2_miss_detected(thread, inst, now)

    # --------------------------------------------------------------- wakeup / fold

    def _src_ready(self, inst: DynInst, now: int, preg: int,
                   invalid: bool) -> None:
        if inst.state != _DISPATCHED:
            return
        if invalid:
            # Record validity *now*: the producing register may be
            # recycled (runahead frees INV registers at pseudo-retire)
            # before this instruction's other operands arrive.
            if inst.psrc1 == preg:
                inst.src_inv_mask |= 1
            if inst.psrc2 == preg:
                inst.src_inv_mask |= 2
        pending = inst.pending_srcs - 1
        inst.pending_srcs = pending
        if pending > 0:
            return
        # Validity was latched into src_inv_mask when each operand became
        # known (dispatch for already-ready sources, wakeup for the rest).
        if self._folds(inst):
            self._fold_worklist.append(inst)
        else:
            inst.state = _READY
            queue = self.queues[OP_QUEUE_BY_CODE[inst.op]]
            queue.mark_ready(inst)

    def _folds(self, inst: DynInst) -> bool:
        """Does an operand the instruction executes on carry INV?  Stores
        fold only on an invalid *address* (src1); invalid store data
        merely marks the forwarded value invalid (§3.3, runahead cache
        discussion)."""
        return (inst.src_inv_mask & 1 if inst.is_store
                else inst.src_inv_mask)

    def _fold(self, inst: DynInst, now: int) -> None:
        """Squash-free cancellation: complete instantly with an INV result."""
        self.queues[OP_QUEUE_BY_CODE[inst.op]].remove(inst)
        self._uncount(inst)
        inst.invalid = True
        inst.complete_cycle = now
        # Folded instructions never execute (paper §3.1), so they are kept
        # out of the executed-instruction energy proxy.
        self.threads[inst.tid].stats.folded += 1
        self._complete(inst, now)

    def _drain_folds(self, now: int) -> None:
        while self._fold_worklist:
            inst = self._fold_worklist.pop()
            if inst.state == _DISPATCHED:
                self._fold(inst, now)

    def _uncount(self, inst: DynInst) -> None:
        """Release an ICOUNT slot, before the state change: an instruction
        holds one while ``state <= READY``."""
        if inst.state <= _READY:
            self.threads[inst.tid].icount -= 1

    # --------------------------------------------------------------- commit

    def _commit_stage(self, now: int) -> None:
        budget = self._width
        for thread in self._rotations[now % self.num_threads]:
            if (thread.mode is _RUNAHEAD
                    and now >= thread.runahead_trigger_ready):
                # The triggering miss has resolved (§3.1).
                self.runahead.exit(thread, now)
                continue
            budget = self._commit_thread(thread, now, budget)
            if budget <= 0:
                break

    def _commit_thread(self, thread: ThreadContext, now: int,
                       budget: int) -> int:
        tid = thread.tid
        rob = self.rob
        window = rob._queues[tid]   # read-only peek at the head
        if not window:
            return budget
        stats = thread.stats
        # The mode is stable across the loop: runahead entry breaks out,
        # runahead exit happens in _commit_stage.
        if thread.mode is _NORMAL:
            last_index = thread.last_index
            rename = thread.rename
            gstats = self.gstats
            while budget > 0 and window:
                head = window[0]
                if head.state == _COMPLETED:
                    rob.pop_head(tid)
                    head.state = _RETIRED
                    stats.committed += 1
                    gstats.committed += 1
                    self._last_commit_cycle = now
                    budget -= 1
                    dest_arch = head.dest_arch
                    if head.pdest != NO_REG:
                        if dest_arch < _NINT:
                            klass = 0
                            arch_index = dest_arch
                        else:
                            klass = 1
                            arch_index = dest_arch - _NINT
                        old = rename.commit_dest(klass, arch_index,
                                                 head.pdest)
                        if old != head.pdest:
                            self._release_preg(thread, klass, old)
                    if head.is_store:
                        self.mem.data_access_packed(head.addr, True,
                                                    now, tid)
                    if head.trace_index == last_index:
                        thread.finished_passes += 1
                        stats.passes += 1
                elif (head.l2_miss and self._uses_runahead
                      and self.runahead.should_enter(thread, head, now)):
                    self._enter_runahead(thread, head, now)
                    return budget - 1
                else:
                    break
            return budget
        # Pseudo-retirement (§3.1): no architectural update; superseded
        # mappings die, except the pinned checkpoint.
        int_file = self.int_file
        fp_file = self.fp_file
        while budget > 0 and window:
            head = window[0]
            if head.state != _COMPLETED:
                break
            rob.pop_head(tid)
            head.state = _RETIRED
            stats.pseudo_retired += 1
            # Forward progress, albeit speculative.
            self._last_commit_cycle = now
            budget -= 1
            dest_arch = head.dest_arch
            if dest_arch == NO_REG:
                continue
            if dest_arch < _NINT:
                klass, file = 0, int_file
            else:
                klass, file = 1, fp_file
            old = head.old_pdest
            if old != NO_REG and not file.pinned[old]:
                self._release_preg(thread, klass, old)
            if head.pdest != NO_REG:   # prefilter: recycle's early-out
                self._recycle_runahead_dest(thread, head)
        return budget

    def _enter_runahead(self, thread: ThreadContext, trigger: DynInst,
                        now: int) -> None:
        """Checkpoint and pseudo-retire the triggering L2-miss load (§3.1)."""
        self.runahead.enter(thread, trigger, now)
        self.rob.pop_head(thread.tid)
        trigger.state = _RETIRED
        thread.stats.pseudo_retired += 1
        if trigger.l2_counted:
            trigger.l2_counted = False
            thread.pending_l2_misses -= 1
        # Bogus INV value: dependents fold as they wake.
        if trigger.pdest != NO_REG:
            if trigger.dest_arch < _NINT:
                klass, file = 0, self.int_file
            else:
                klass, file = 1, self.fp_file
            woken = file.set_ready(trigger.pdest, now, invalid=True)
            for waiter in woken:
                self._src_ready(waiter, now, trigger.pdest, True)
            if trigger.old_pdest != NO_REG \
                    and not file.pinned[trigger.old_pdest]:
                self._release_preg(thread, klass, trigger.old_pdest)
        # §3.2: every other in-flight long-latency load of this thread is
        # invalidated too — its fill continues as a prefetch, but its
        # dependents fold instead of clogging the shared issue queues for
        # the whole episode.
        horizon = now + self.config.dcache.latency + self.config.l2.latency
        for inflight in self.rob.thread_window(thread.tid):
            if (inflight.is_load and inflight.state == _ISSUED
                    and (inflight.l2_miss or inflight.complete_cycle > horizon)):
                inflight.invalid = True
                self._complete(inflight, now)
        self._drain_folds(now)

    def _release_preg(self, thread: ThreadContext, klass: int,
                      preg: int) -> None:
        file = self.int_file if klass == 0 else self.fp_file
        file.release(preg)
        thread.regs_held[klass] -= 1

    def _recycle_runahead_dest(self, thread: ThreadContext,
                               inst: DynInst) -> None:
        """Early release of a runahead destination register (§3.3).

        Invalid results hold no value ("when a physical register is
        invalid this can be freed and used for the rest of the threads");
        valid pseudo-retired results live on conceptually through the
        checkpointed map — values are already computed, so later consumers
        resolving to the architectural register observe correct timing.
        Only applies while the mapping is still current and unpinned.
        """
        if inst.pdest == NO_REG:
            return
        if inst.dest_arch < _NINT:
            klass, file = 0, self.int_file
            arch_index = inst.dest_arch
        else:
            klass, file = 1, self.fp_file
            arch_index = inst.dest_arch - _NINT
        preg = inst.pdest
        if file.pinned[preg]:
            return
        front = thread.rename.front[klass]
        if front[arch_index] != preg:
            return
        front[arch_index] = thread.rename.arch[klass][arch_index]
        self._release_preg(thread, klass, preg)
        thread.note_arch_invalid(inst.dest_arch, inst.invalid)
        inst.pdest = NO_REG

    # --------------------------------------------------------------- issue

    def _issue_stage(self, now: int) -> None:
        # IssueQueueKind and FUKind coincide numerically (INT/FP + LS/LDST),
        # so the queue index doubles as the FU pool index.
        available = self.fus._available
        threads = self.threads
        for queue_kind in (2, 0, 1):     # LS first, then INT, FP
            queue = self.queues[queue_kind]
            if not queue._ready:
                continue
            budget = available[queue_kind]
            if budget <= 0:
                continue
            per_thread = queue.per_thread
            for inst in queue.take_ready(budget):
                tid = inst.tid
                thread = threads[tid]
                if inst.is_load:
                    if not self._issue_load(thread, inst, queue, now):
                        continue
                elif inst.is_store:
                    self._issue_store(thread, inst, now)
                else:
                    cycle = now + OP_LATENCY_BY_CODE[inst.op]
                    inst.complete_cycle = cycle
                    self.schedule(cycle, _EV_COMPLETE, inst)
                # The take_ready budget is the pool's available unit
                # count, so the unit is claimed without an exhaustion
                # test.
                available[OP_FU_BY_CODE[inst.op]] -= 1
                # A selected entry is READY: it holds its queue entry and
                # its ICOUNT slot, so both release without a state test.
                queue.size -= 1
                per_thread[tid] -= 1
                thread.icount -= 1
                inst.state = _ISSUED
                thread.stats.executed += 1
        if self._fold_worklist:
            self._drain_folds(now)

    def _issue_store(self, thread: ThreadContext, inst: DynInst,
                     now: int) -> None:
        """Stores compute their address at issue; memory is written at
        commit (write buffer).  Runahead stores never write memory but do
        prefetch their line and feed the runahead cache (§3.3)."""
        cycle = now + 1
        inst.complete_cycle = cycle
        self.schedule(cycle, _EV_COMPLETE, inst)
        if thread.mode is _RUNAHEAD:
            data_valid = not (inst.src_inv_mask & 2)
            self.runahead.on_runahead_store(thread, inst, data_valid)
            if self.runahead.prefetch:
                self.mem.data_access_packed(inst.addr, True, now,
                                            thread.tid, speculative=True)

    def _issue_load(self, thread: ThreadContext, inst: DynInst,
                    queue: IssueQueue, now: int) -> bool:
        """Issue a load; returns False if it must retry (MSHRs full)."""
        if thread.mode is _RUNAHEAD:
            self._issue_runahead_load(thread, inst, now)
            return True
        packed = self.mem.data_access_packed(inst.addr, False, now,
                                             thread.tid)
        if packed < 0:
            # Demand miss rejected by a full MSHR file: back on the ready
            # list to retry next cycle, which also keeps the fast path
            # stepping until the retry succeeds.
            queue.mark_ready(inst)
            return False
        cycle = packed >> 2
        inst.complete_cycle = cycle
        self.schedule(cycle, _EV_COMPLETE, inst)
        if packed & 2:
            detect = min(cycle, now + self._l2_detect_latency)
            self.schedule(detect, _EV_L2_DETECT, inst)
        return True

    def _issue_runahead_load(self, thread: ThreadContext, inst: DynInst,
                             now: int) -> None:
        """Runahead loads: cache hits complete normally; L2 misses become
        prefetches and produce INV at L2-lookup time (§3.2)."""
        forwarded = self.runahead.load_forward_validity(thread, inst)
        if forwarded is not None:
            inst.invalid = not forwarded
            cycle = now + self._dcache_latency
        elif not self.runahead.prefetch:
            # Figure 4 ablation: no L2/memory traffic from runahead.
            level = self.mem.peek_data(inst.addr)
            if level == "l1":
                cycle = now + self._dcache_latency
            elif level == "l2":
                cycle = now + self._l2_detect_latency
            else:
                inst.invalid = True
                cycle = now + self._l2_detect_latency
                thread.no_retrigger.add(
                    inst.pass_no * thread.retrigger_stride
                    + inst.trace_index)
        else:
            packed = self.mem.data_access_packed(inst.addr, False, now,
                                                 thread.tid,
                                                 speculative=True)
            if packed < 0:
                # Prefetch dropped (MSHRs full): bogus value, no retry.
                inst.invalid = True
                cycle = now + self._dcache_latency
            elif packed & 2:
                # Long-latency: invalidate the dest, keep the fill as a
                # prefetch.
                inst.invalid = True
                cycle = min(packed >> 2, now + self._l2_detect_latency)
                if self.runahead.stop_fetch_on_l2_miss:
                    thread.gate_fetch_until(thread.runahead_trigger_ready)
            else:
                cycle = packed >> 2
        inst.complete_cycle = cycle
        self.schedule(cycle, _EV_COMPLETE, inst)

    # --------------------------------------------------------------- branch resolution

    def _resolve_misprediction(self, inst: DynInst, now: int) -> None:
        thread = self.threads[inst.tid]
        thread.stats.mispredicts += 1
        self.squash_thread_younger(thread, inst.gseq)
        next_index = inst.trace_index + 1
        next_pass = inst.pass_no
        if next_index >= len(thread.trace):
            next_index = 0
            next_pass += 1
        thread.rewind_to(next_index, next_pass)
        thread.block_fetch_until(now + self.config.redirect_penalty)

    # --------------------------------------------------------------- squash

    def squash_thread_younger(self, thread: ThreadContext,
                              boundary_gseq: int) -> int:
        """Cancel all of a thread's instructions younger than a boundary
        (a ``gseq``: global fetch order also orders each thread).

        Returns the number of instructions squashed.  Rename repair runs
        youngest-first so front-end map restoration is exact.
        """
        count = 0
        for inst in thread.fetch_queue:
            self._uncount(inst)
            inst.state = _SQUASHED
            thread.stats.squashed += 1
            count += 1
        thread.fetch_queue.clear()
        for inst in self.rob.squash_younger(thread.tid, boundary_gseq):
            self._squash_rob_entry(thread, inst)
            count += 1
        thread.fetch_line = -1
        return count

    def squash_thread_all(self, thread: ThreadContext) -> int:
        """Cancel every in-flight instruction of a thread (runahead exit)."""
        return self.squash_thread_younger(thread, -1)

    def _squash_rob_entry(self, thread: ThreadContext,
                          inst: DynInst) -> None:
        self.queues[OP_QUEUE_BY_CODE[inst.op]].remove(inst)
        self._uncount(inst)
        if inst.l2_counted:
            inst.l2_counted = False
            thread.pending_l2_misses -= 1
        if inst.pdest != NO_REG:
            if inst.dest_arch < _NINT:
                klass = 0
                arch_index = inst.dest_arch
            else:
                klass = 1
                arch_index = inst.dest_arch - _NINT
            thread.rename.undo_rename(klass, arch_index, inst.old_pdest)
            self._release_preg(thread, klass, inst.pdest)
        inst.state = _SQUASHED
        thread.stats.squashed += 1

    # --------------------------------------------------------------- dispatch

    def _dispatch_stage(self, now: int) -> None:
        budget = self._width
        for thread in self._rotations[now % self.num_threads]:
            fetch_queue = thread.fetch_queue
            while budget > 0 and fetch_queue:
                if not self._dispatch(thread, fetch_queue[0], now):
                    break
                fetch_queue.popleft()
                budget -= 1
            if budget <= 0:
                break
        if self._fold_worklist:
            self._drain_folds(now)

    def _dispatch(self, thread: ThreadContext, inst: DynInst,
                  now: int) -> bool:
        """Rename and insert one instruction; False if resources lack."""
        rob = self.rob
        if rob.is_full():
            return False
        op = inst.op
        stats = thread.stats
        if self._drops_at_decode(thread, op):
            # §3.3: FP compute and synchronization ops in runahead use no
            # resources past decode — straight to pseudo-commit, INV.
            rob.append(inst)
            self._uncount(inst)
            inst.state = _COMPLETED
            inst.invalid = True
            inst.complete_cycle = now
            if IS_FP_BY_CODE[op] and inst.dest_arch != NO_REG:
                thread.note_arch_invalid(inst.dest_arch, True)
            stats.dispatched += 1
            stats.folded += 1
            return True

        queue = self.queues[OP_QUEUE_BY_CODE[op]]
        if queue.is_full():
            return False
        dest_arch = inst.dest_arch
        dest_file: Optional[PhysRegFile] = None
        if dest_arch != NO_REG:
            dest_file = self.int_file if dest_arch < _NINT else self.fp_file
            if dest_file.is_full():
                return False

        rob.append(inst)
        inst.state = _DISPATCHED
        stats.dispatched += 1
        # Sources read the mappings from before the destination's rename.
        inst.psrc1 = self._rename_src(thread, inst, inst.src1_arch, 1, now)
        inst.psrc2 = self._rename_src(thread, inst, inst.src2_arch, 2, now)
        if dest_file is not None:
            preg = dest_file.alloc()
            if dest_arch < _NINT:
                klass = 0
                arch_index = dest_arch
            else:
                klass = 1
                arch_index = dest_arch - _NINT
            inst.pdest = preg
            inst.old_pdest = thread.rename.rename_dest(klass, arch_index,
                                                       preg)
            thread.regs_held[klass] += 1
            # A renamed write supersedes any early-reclaimed INV producer.
            thread.note_arch_invalid(dest_arch, False)

        queue.insert(inst)
        if inst.pending_srcs == 0:
            if self._folds(inst):
                self._fold(inst, now)
            else:
                inst.state = _READY
                queue.mark_ready(inst)
        return True

    def _drops_at_decode(self, thread: ThreadContext, op: int) -> bool:
        """Is this op dropped at decode (§3.3)?  In runahead, FP compute
        (when FP invalidation is on) and synchronization ops produce INV
        without an issue-queue entry or a register."""
        return thread.mode is _RUNAHEAD and (
            (self._ra_fp_inval and IS_FP_BY_CODE[op]) or op == _SYNC_CODE)

    def _rename_src(self, thread: ThreadContext, inst: DynInst, arch: int,
                    bit: int, now: int) -> int:
        """Rename one source operand: the physical register it reads, or
        NO_REG if none.

        An operand whose producer's register was reclaimed early (INV
        recycling or the FP decode drop, §3.3) is INV at architectural
        level: nothing to wait for, no register to read.  Otherwise its
        validity is latched into ``src_inv_mask`` (as ``bit``) now if
        the value is ready, or at wakeup (:meth:`_src_ready`).
        """
        if arch == NO_REG:
            return NO_REG
        if thread.arch_inv[arch]:
            inst.src_inv_mask |= bit
            return NO_REG
        if arch < _NINT:
            file = self.int_file
            preg = thread.rename.lookup(0, arch)
        else:
            file = self.fp_file
            preg = thread.rename.lookup(1, arch - _NINT)
        if file.ready[preg] <= now:
            if file.inv[preg]:
                inst.src_inv_mask |= bit
        else:
            file.add_waiter(preg, inst)
            inst.pending_srcs += 1
        return preg

    # --------------------------------------------------------------- fetch

    def _fetch_stage(self, now: int) -> None:
        order = self.policy.fetch_order(now)
        fetched_total = 0
        threads_used = 0
        width = self._width
        fetch_threads = self._fetch_threads
        threads = self.threads
        for tid in order:
            if threads_used >= fetch_threads:
                break
            if fetched_total >= width:
                break
            thread = threads[tid]
            if not thread.can_fetch(now):
                continue
            taken = self._fetch_thread(thread, now, width - fetched_total)
            if taken > 0:
                fetched_total += taken
                threads_used += 1

    def _fetch_thread(self, thread: ThreadContext, now: int,
                      limit: int) -> int:
        fetch_queue = thread.fetch_queue
        buffer_room = self._fetch_buffer_size - len(fetch_queue)
        if buffer_room <= 0:
            # Full fetch buffer (dispatch is the bottleneck): bail before
            # paying for the hot-loop hoists below.
            return 0
        if buffer_room < limit:
            limit = buffer_room
        count = 0
        icache_done = now + self._icache_latency
        stats = thread.stats
        gseq = self._gseq
        # Trace columns and address math, hoisted out of the loop that
        # materializes every dynamic instruction in the simulation.  The
        # mode is stable within a fetch block: runahead entry/exit happen
        # at commit.  ``pcs_off``/``fetch_lines`` carry the thread's code
        # offset and the i-cache line index pre-folded (see __init__).
        pcs_off = thread.pcs_off
        lines = thread.fetch_lines
        ops = thread.ops
        dests = thread.dests
        src1s = thread.src1s
        src2s = thread.src2s
        addrs = thread.addrs
        takens = thread.takens
        tid = thread.tid
        trace_len = len(ops)
        in_runahead = thread.mode is _RUNAHEAD
        cursor = thread.cursor
        append = fetch_queue.append
        ifetch_packed = self.mem.ifetch_packed
        while count < limit:
            line = lines[cursor]
            if line != thread.fetch_line:
                complete = ifetch_packed(pcs_off[cursor], now, tid,
                                         speculative=in_runahead) >> 2
                thread.fetch_line = line
                if complete > icache_done:
                    thread.block_fetch_until(complete)
                    break
            # The trace row at the cursor becomes a dynamic instruction.
            pc = pcs_off[cursor]
            pass_no = thread.pass_no
            inst = DynInst(
                tid, gseq, cursor, pass_no,
                ops[cursor], pc, 0,
                dests[cursor], src1s[cursor], src2s[cursor],
                takens[cursor],
            )
            gseq += 1
            if inst.is_mem:
                inst.addr = thread.physical_addr(addrs[cursor], pass_no)
            cursor += 1
            if cursor >= trace_len:
                cursor = 0
                thread.pass_no = pass_no + 1
            append(inst)
            count += 1
            if inst.is_branch:
                stats.branches += 1
                correct = self.predictor.predict(tid, pc, inst.taken)
                inst.mispredicted = not correct
                if inst.taken:
                    # Taken branch ends this thread's fetch block; a BTB
                    # miss costs one redirect bubble.
                    if not self.btb.lookup_and_insert(pc):
                        thread.block_fetch_until(now + 2)
                    break
        thread.cursor = cursor
        if count:
            # Per-instruction counters, applied once per fetch block.
            self._gseq = gseq
            thread.icount += count
            stats.fetched += count
        return count

    # --------------------------------------------------------------- sampling

    def _sample_stats(self) -> None:
        for thread in self.threads:
            held = thread.regs_held[0] + thread.regs_held[1]
            stats = thread.stats
            if thread.mode is _RUNAHEAD:
                stats.runahead_cycles += 1
                stats.runahead_reg_samples += 1
                stats.runahead_regs_held += held
            else:
                stats.normal_reg_samples += 1
                stats.normal_regs_held += held
        self.gstats.cycles += 1

    # --------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Structural consistency checks (used heavily by tests)."""
        self.int_file.check_conservation()
        self.fp_file.check_conservation()
        self.rob.check_occupancy()
        for thread in self.threads:
            thread.rename.check_maps()
        total_held_int = sum(t.regs_held[0] for t in self.threads)
        total_held_fp = sum(t.regs_held[1] for t in self.threads)
        if total_held_int != self.int_file.allocated_count:
            raise SimulationError(
                f"INT regs_held {total_held_int} != allocated "
                f"{self.int_file.allocated_count}")
        if total_held_fp != self.fp_file.allocated_count:
            raise SimulationError(
                f"FP regs_held {total_held_fp} != allocated "
                f"{self.fp_file.allocated_count}")
