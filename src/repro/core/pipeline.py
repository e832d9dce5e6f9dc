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
    RegClass,
    reg_class,
)
from ..mem import MemoryHierarchy
from ..trace.trace import Trace
from .dyninst import DynInst, InstState
from .fu import FUPool
from .hookspec import horizon_covers_on_cycle
from .issue_queue import IssueQueue, MEMORY_WAIT
from .regfile import NEVER as _NEVER, PhysRegFile
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
        fus = self.fus                      # inlined new_cycle
        available = fus._available
        capacity = fus._capacity
        available[0] = capacity[0]
        available[1] = capacity[1]
        available[2] = capacity[2]
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
        runahead exit falling due, the MSHR file's next fill (ready
        loads replaying against a full file), or the policy's
        :meth:`~repro.policies.base.FetchPolicy.skip_horizon`.
        ``self.cycle`` jumps straight there, with the per-cycle
        statistics (register-occupancy samples, runahead cycles,
        stall/conflict counters) bulk-accounted so results are
        bit-identical to stepping every cycle (see
        ``tests/test_golden_digest.py``).  Windows *inside* a busy
        thread are skippable too: a thread spinning on a rejected load
        or waiting out its runahead trigger contributes a wakeup cycle
        instead of pinning the machine to per-cycle stepping.

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
        executed_before = gstats.executed
        self.step()
        # Activity precheck: a cycle that fetched, issued or committed
        # anything cannot open an idle window, so skip the full
        # quiescence scan (the overwhelmingly common case while busy).
        if (self._gseq != gseq_before
                or gstats.committed != committed_before
                or gstats.executed != executed_before):
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
          <repro.core.issue_queue.IssueQueue.next_ready_cycle>`) — a
          live ready entry pins ``start``, unless every ready entry is a
          demand load replaying against a full MSHR file, in which case
          the wakeup belongs to the memory system
          (:meth:`~repro.mem.hierarchy.MemoryHierarchy.next_fill_cycle`);
        * per-thread fetch gates, runahead exits and runahead-entry
          eligibility at the window heads;
        * the cycle-indexed event table (completions / L2 detections),
          via a lazily-pruned min-heap of its keys;
        * the policy's :meth:`~repro.policies.base.FetchPolicy.
          skip_horizon`.

        The FU pools need no clamp term here: they are fully pipelined
        (budgets refresh next cycle, :meth:`FUPool.next_release_cycle
        <repro.core.fu.FUPool.next_release_cycle>`), and a pool can only
        be exhausted on a cycle that issued instructions — which the
        activity precheck in :meth:`advance` already refuses to skip.
        """
        if self._fold_worklist:
            return start
        memory_wait = False
        for queue in self.queues:
            wake = queue.next_ready_cycle(start)
            if wake is not None:
                if wake != MEMORY_WAIT:
                    return start        # issueable entry next cycle
                memory_wait = True      # replaying loads; MSHRs own the wake

        bound = self._last_commit_cycle + _DEADLOCK_WINDOW + 1
        if limit is not None and limit < bound:
            bound = limit
        if memory_wait:
            fill = self.mem.next_fill_cycle(start)
            if fill is None or fill <= start:
                return start            # defensive: unknown horizon
            if fill < bound:
                bound = fill
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

        Mirrors :meth:`_dispatch`'s failure paths.  Each blocking
        resource (ROB entries, issue-queue entries, rename registers)
        can only be released by a completion event, a runahead exit, or
        a policy wakeup — all of which clamp the skip target — so a
        blocked verdict holds for the whole skipped window.
        """
        if self.rob.is_full():
            return True
        inst = thread.fetch_queue[0]
        op = inst.op
        if thread.in_runahead and (
                (self.runahead.fp_invalidation and IS_FP_BY_CODE[op])
                or op == _SYNC_CODE):
            return False   # decode-drop needs only a ROB slot: would proceed
        if self.queues[OP_QUEUE_BY_CODE[op]].is_full():
            return True
        if inst.dest_arch != NO_REG:
            file = self.int_file \
                if reg_class(inst.dest_arch) == RegClass.INT else self.fp_file
            if file.free_count == 0:
                return True
        return False

    def _skip_to(self, start: int, target: int) -> None:
        """Jump from ``start`` to ``target``, bulk-accounting the idle
        cycles exactly as ``target - start`` no-op steps would have.
        """
        k = target - start
        stalled_threads = 0
        conflicts = 0
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
            if thread.fetch_queue:
                stalled_threads += 1
            gate = thread.fetch_blocked_until
            if thread.fetch_gated_until > gate:
                gate = thread.fetch_gated_until
            if gate > start:
                # can_fetch() is false until the gate expires; policies
                # that re-gate every cycle (hill climbing) would keep it
                # false longer, but only this conservative count is
                # derivable from frozen state (gstats are diagnostics,
                # not part of SimResult).
                conflicts += k if gate - start > k else gate - start
        self.gstats.cycles += k
        self.gstats.dispatch_stalls += k * stalled_threads
        self.gstats.fetch_conflicts += conflicts
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
        threads = self.threads
        int_file = self.int_file
        fp_file = self.fp_file
        src_ready = self._src_ready
        for kind, inst in bucket:
            state = inst.state
            if state == _SQUASHED or state == _RETIRED:
                continue
            if kind == _EV_COMPLETE:
                if state == _ISSUED:
                    # Inlined _complete (the per-completion hot path).
                    inst.state = _COMPLETED
                    thread = threads[inst.tid]
                    if inst.l2_counted:
                        inst.l2_counted = False
                        thread.pending_l2_misses -= 1
                    preg = inst.pdest
                    if preg != NO_REG:
                        invalid = inst.invalid
                        file = (int_file if inst.dest_arch < _NINT
                                else fp_file)
                        file.ready[preg] = now       # inlined set_ready
                        file.inv[preg] = invalid
                        woken = file.waiters[preg]
                        if woken:
                            file.waiters[preg] = []
                            for waiter in woken:
                                src_ready(waiter, now, preg, invalid)
                        if invalid and thread.mode is _RUNAHEAD:
                            self._recycle_runahead_dest(thread, inst)
                    if (inst.is_branch and not inst.invalid
                            and inst.mispredicted):
                        self._resolve_misprediction(inst, now)
            elif kind == _EV_L2_DETECT:
                if state < _RETIRED:
                    self._on_l2_detected(inst, now)
        if self._fold_worklist:
            self._drain_folds(now)

    def _complete(self, inst: DynInst, now: int) -> None:
        # Readable form; _process_events carries an inlined mirror of
        # this body for the per-completion hot path.
        inst.state = _COMPLETED
        thread = self.threads[inst.tid]
        if inst.l2_counted:
            inst.l2_counted = False
            thread.pending_l2_misses -= 1
        preg = inst.pdest
        if preg != NO_REG:
            invalid = inst.invalid
            file = self.int_file if inst.dest_arch < _NINT else self.fp_file
            file.ready[preg] = now               # inlined set_ready
            file.inv[preg] = invalid
            woken = file.waiters[preg]
            if woken:
                file.waiters[preg] = []
                for waiter in woken:
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
        inst.pending_srcs -= 1
        if inst.pending_srcs > 0:
            return
        if self._operands_invalid(inst):
            self._fold_worklist.append(inst)
        else:
            inst.state = _READY
            self.queues[OP_QUEUE_BY_CODE[inst.op]]._ready.append(inst)

    def _operands_invalid(self, inst: DynInst) -> bool:
        """Fold test: does any operand needed for execution carry INV?

        Validity was latched into ``src_inv_mask`` when each operand became
        known (dispatch for already-ready sources, wakeup for the rest).
        Stores fold only on an invalid *address* (src1); invalid store data
        merely marks the forwarded value invalid (§3.3, runahead cache
        discussion).
        """
        mask = inst.src_inv_mask
        if inst.is_store:
            return bool(mask & 1)
        return mask != 0

    def _fold(self, inst: DynInst, now: int) -> None:
        """Squash-free cancellation: complete instantly with an INV result."""
        inst.invalid = True
        inst.state = _COMPLETED
        inst.complete_cycle = now
        if inst.in_iq:
            self.queues[OP_QUEUE_BY_CODE[inst.op]].remove(inst)
        self._uncount(inst)
        thread = self.threads[inst.tid]
        # Folded instructions never execute (paper §3.1), so they are kept
        # out of the executed-instruction energy proxy.
        thread.stats.folded += 1
        if inst.pdest != NO_REG:
            file = self.int_file if inst.dest_arch < _NINT else self.fp_file
            woken = file.set_ready(inst.pdest, now, invalid=True)
            for waiter in woken:
                self._src_ready(waiter, now, inst.pdest, True)
            if thread.mode is _RUNAHEAD:
                self._recycle_runahead_dest(thread, inst)

    def _drain_folds(self, now: int) -> None:
        while self._fold_worklist:
            inst = self._fold_worklist.pop()
            if inst.state == _DISPATCHED:
                self._fold(inst, now)

    def _uncount(self, inst: DynInst) -> None:
        if inst.counted:
            inst.counted = False
            self.threads[inst.tid].icount -= 1

    # --------------------------------------------------------------- commit

    def _commit_stage(self, now: int) -> None:
        budget = self._width
        for thread in self._rotations[now % self.num_threads]:
            if (thread.mode is _RUNAHEAD            # inlined should_exit
                    and now >= thread.runahead_trigger_ready):
                self.runahead.exit(thread, now)
                continue
            budget = self._commit_thread(thread, now, budget)
            if budget <= 0:
                break

    def _commit_thread(self, thread: ThreadContext, now: int,
                       budget: int) -> int:
        tid = thread.tid
        rob = self.rob
        window = rob._queues[tid]   # peek; pops inlined below
        if not window:
            return budget
        stats = thread.stats
        # The mode is stable across the loop: runahead entry breaks out,
        # runahead exit happens in _commit_stage — so the normal and
        # runahead commit loops can be specialized separately with the
        # per-instruction helpers inlined (the per-inst hot path).
        if thread.mode is _NORMAL:
            last_index = thread.last_index
            gstats = self.gstats
            while budget > 0 and window:
                head = window[0]
                if head.state == _COMPLETED:
                    window.popleft()        # inlined _commit / pop_head
                    rob._occupancy -= 1
                    rob.per_thread[tid] -= 1
                    head.state = _RETIRED
                    thread.rob_held -= 1
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
                        old = thread.rename.commit_dest(
                            klass, arch_index, head.pdest)
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
        int_file = self.int_file
        fp_file = self.fp_file
        recycle = self._recycle_runahead_dest
        while budget > 0 and window:
            head = window[0]
            if head.state != _COMPLETED:
                break
            window.popleft()        # inlined _pseudo_retire / pop_head
            rob._occupancy -= 1
            rob.per_thread[tid] -= 1
            head.state = _RETIRED
            thread.rob_held -= 1
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
                # Inlined _release_preg (pinned pre-checked just above).
                if not file._allocated[old]:
                    raise SimulationError(
                        f"{file.name}: double release of p{old}")
                file._allocated[old] = False
                file.waiters[old].clear()
                file._free.append(old)
                thread.regs_held[klass] -= 1
            if head.pdest != NO_REG:   # prefilter: recycle's early-out
                recycle(thread, head)
        return budget

    def _enter_runahead(self, thread: ThreadContext, trigger: DynInst,
                        now: int) -> None:
        """Checkpoint and pseudo-retire the triggering L2-miss load (§3.1)."""
        self.runahead.enter(thread, trigger, now)
        self.rob.pop_head(thread.tid)
        trigger.state = _RETIRED
        thread.rob_held -= 1
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
        # Inlined PhysRegFile.release (one call per retired destination);
        # the conservation checks are kept — they are what the heavy
        # invariant tests lean on.
        if not file._allocated[preg]:
            raise SimulationError(
                f"{file.name}: double release of p{preg}")
        if file.pinned[preg]:
            raise SimulationError(
                f"{file.name}: releasing pinned register p{preg}")
        file._allocated[preg] = False
        file.waiters[preg].clear()
        file._free.append(preg)
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
        # Inlined _release_preg (pinned pre-checked just above).
        if not file._allocated[preg]:
            raise SimulationError(
                f"{file.name}: double release of p{preg}")
        file._allocated[preg] = False
        file.waiters[preg].clear()
        file._free.append(preg)
        thread.regs_held[klass] -= 1
        thread.arch_inv[inst.dest_arch] = inst.invalid   # note_arch_invalid
        inst.pdest = NO_REG

    # --------------------------------------------------------------- issue

    def _issue_stage(self, now: int) -> None:
        # IssueQueueKind and FUKind coincide numerically (INT/FP + LS/LDST),
        # so the queue index doubles as the FU pool index.
        fus = self.fus
        available = fus._available
        issued = fus.issued
        threads = self.threads
        events = self._events
        heap = self._event_heap
        gstats = self.gstats
        issue_load = self._issue_load
        issue_store = self._issue_store
        for queue_kind in (2, 0, 1):     # LS first, then INT, FP
            queue = self.queues[queue_kind]
            if not queue._ready:
                continue
            budget = available[queue_kind]
            if budget <= 0:
                continue
            per_thread = queue.per_thread
            for inst in queue.take_ready(budget):
                # Inlined _issue (the per-instruction issue hot path).
                tid = inst.tid
                thread = threads[tid]
                if inst.is_load:
                    if not issue_load(thread, inst, queue, now):
                        continue
                elif inst.is_store:
                    issue_store(thread, inst, now)
                else:
                    cycle = now + OP_LATENCY_BY_CODE[inst.op]
                    inst.complete_cycle = cycle
                    bucket = events.get(cycle)   # inlined schedule()
                    if bucket is None:
                        events[cycle] = [(_EV_COMPLETE, inst)]
                        heappush(heap, cycle)
                    else:
                        bucket.append((_EV_COMPLETE, inst))
                # Inlined FUPool.acquire: the take_ready budget is the
                # available unit count, so the pool can never be
                # exhausted here.
                kind = OP_FU_BY_CODE[inst.op]
                available[kind] -= 1
                issued[kind] += 1
                inst.state = _ISSUED
                # Inlined queue.remove: a selected entry is always in its
                # queue, and take_ready already stripped replay deferral.
                inst.in_iq = False
                queue.size -= 1
                per_thread[tid] -= 1
                if inst.counted:   # inlined _uncount
                    inst.counted = False
                    thread.icount -= 1
                stats = thread.stats
                stats.issued += 1
                stats.executed += 1
                gstats.executed += 1
        if self._fold_worklist:
            self._drain_folds(now)

    def _issue_store(self, thread: ThreadContext, inst: DynInst,
                     now: int) -> None:
        """Stores compute their address at issue; memory is written at
        commit (write buffer).  Runahead stores never write memory but do
        prefetch their line and feed the runahead cache (§3.3)."""
        inst.complete_cycle = now + 1
        self.schedule(inst.complete_cycle, _EV_COMPLETE, inst)
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
            # Demand miss rejected by a full MSHR file: replay next cycle.
            # The replay flag tells the fast path this entry cannot issue
            # before the MSHRs release an entry (mem.next_fill_cycle), so
            # the retry window is skippable instead of stepped.
            queue.requeue(inst, replay=True)
            return False
        cycle = packed >> 2
        inst.complete_cycle = cycle
        events = self._events                # inlined schedule()
        bucket = events.get(cycle)
        if bucket is None:
            events[cycle] = [(_EV_COMPLETE, inst)]
            heappush(self._event_heap, cycle)
        else:
            bucket.append((_EV_COMPLETE, inst))
        if packed & 2:
            detect = min(cycle, now + self._l2_detect_latency)
            self.schedule(detect, _EV_L2_DETECT, inst)
        return True

    def _issue_runahead_load(self, thread: ThreadContext, inst: DynInst,
                             now: int) -> None:
        """Runahead loads: cache hits complete normally; L2 misses become
        prefetches and produce INV at L2-lookup time (§3.2)."""
        l1_latency = self._dcache_latency
        detect_latency = self._l2_detect_latency
        forwarded = self.runahead.load_forward_validity(thread, inst)
        if forwarded is not None:
            inst.invalid = not forwarded
            inst.complete_cycle = now + l1_latency
            self.schedule(inst.complete_cycle, _EV_COMPLETE, inst)
            return
        if not self.runahead.prefetch:
            # Figure 4 ablation: no L2/memory traffic from runahead.
            level = self.mem.peek_data(inst.addr)
            if level == "l1":
                inst.complete_cycle = now + l1_latency
            elif level == "l2":
                inst.complete_cycle = now + detect_latency
            else:
                inst.invalid = True
                inst.complete_cycle = now + detect_latency
                thread.no_retrigger.add(
                    inst.pass_no * thread.retrigger_stride
                    + inst.trace_index)
            self.schedule(inst.complete_cycle, _EV_COMPLETE, inst)
            return
        packed = self.mem.data_access_packed(inst.addr, False, now,
                                             thread.tid, speculative=True)
        if packed < 0:
            # Prefetch dropped (MSHRs full): bogus value, no retry.
            inst.invalid = True
            inst.complete_cycle = now + l1_latency
        elif packed & 2:
            # Long-latency: invalidate the dest, keep the fill as prefetch.
            inst.invalid = True
            inst.complete_cycle = min(packed >> 2, now + detect_latency)
            if self.runahead.stop_fetch_on_l2_miss:
                thread.gate_fetch_until(thread.runahead_trigger_ready)
        else:
            inst.complete_cycle = packed >> 2
        cycle = inst.complete_cycle
        events = self._events                # inlined schedule()
        bucket = events.get(cycle)
        if bucket is None:
            events[cycle] = [(_EV_COMPLETE, inst)]
            heappush(self._event_heap, cycle)
        else:
            bucket.append((_EV_COMPLETE, inst))

    # --------------------------------------------------------------- branch resolution

    def _resolve_misprediction(self, inst: DynInst, now: int) -> None:
        thread = self.threads[inst.tid]
        thread.stats.mispredicts += 1
        self.squash_thread_younger(thread, inst.seq)
        next_index = inst.trace_index + 1
        next_pass = inst.pass_no
        if next_index >= len(thread.trace):
            next_index = 0
            next_pass += 1
        thread.rewind_to(next_index, next_pass)
        thread.block_fetch_until(now + self.config.redirect_penalty)

    # --------------------------------------------------------------- squash

    def squash_thread_younger(self, thread: ThreadContext,
                              boundary_seq: int) -> int:
        """Cancel all of a thread's instructions younger than a boundary.

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
        for inst in self.rob.squash_younger(thread.tid, boundary_seq):
            self._squash_rob_entry(thread, inst)
            count += 1
        thread.fetch_line = -1
        return count

    def squash_thread_all(self, thread: ThreadContext) -> int:
        """Cancel every in-flight instruction of a thread (runahead exit)."""
        return self.squash_thread_younger(thread, -1)

    def _squash_rob_entry(self, thread: ThreadContext,
                          inst: DynInst) -> None:
        if inst.in_iq:
            self.queues[OP_QUEUE_BY_CODE[inst.op]].remove(inst)
        self._uncount(inst)
        if inst.l2_counted:
            inst.l2_counted = False
            thread.pending_l2_misses -= 1
        thread.rob_held -= 1
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
        dispatch = self._dispatch
        for thread in self._rotations[now % self.num_threads]:
            fetch_queue = thread.fetch_queue
            while budget > 0 and fetch_queue:
                if not dispatch(thread, fetch_queue[0], now):
                    self.gstats.dispatch_stalls += 1
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
        if rob._occupancy >= rob.capacity:   # inlined is_full
            return False
        op = inst.op

        drop_at_decode = thread.mode is _RUNAHEAD and (
            (self._ra_fp_inval and IS_FP_BY_CODE[op])
            or op == _SYNC_CODE)
        if drop_at_decode:
            # §3.3: FP compute and synchronization ops in runahead use no
            # resources past decode — straight to pseudo-commit, INV.
            rob._queues[inst.tid].append(inst)   # inlined append
            rob._occupancy += 1
            rob.per_thread[inst.tid] += 1
            thread.rob_held += 1
            inst.state = _COMPLETED
            inst.invalid = True
            inst.complete_cycle = now
            self._uncount(inst)
            if IS_FP_BY_CODE[op] and inst.dest_arch != NO_REG:
                thread.note_arch_invalid(inst.dest_arch, True)
            thread.stats.dispatched += 1
            thread.stats.folded += 1
            return True

        queue = self.queues[OP_QUEUE_BY_CODE[op]]
        if queue.size >= queue.capacity:   # inlined is_full
            return False
        dest_arch = inst.dest_arch
        dest_file: Optional[PhysRegFile] = None
        if dest_arch != NO_REG:
            dest_file = self.int_file if dest_arch < _NINT else self.fp_file
            if not dest_file._free:   # free_count == 0, sans property call
                return False

        rob._queues[inst.tid].append(inst)   # inlined append, checked above
        rob._occupancy += 1
        rob.per_thread[inst.tid] += 1
        thread.rob_held += 1
        inst.state = _DISPATCHED
        thread.stats.dispatched += 1

        # Source renaming, inlined twice (this is the per-instruction
        # dispatch hot path; see _rename_source for the readable form).
        pending = 0
        arch_inv = thread.arch_inv
        front = thread.rename.front
        arch = inst.src1_arch
        if arch != NO_REG:
            if arch_inv[arch]:
                inst.src_inv_mask |= 1
            else:
                if arch < _NINT:
                    file = self.int_file
                    preg = front[0][arch]
                else:
                    file = self.fp_file
                    preg = front[1][arch - _NINT]
                inst.psrc1 = preg
                if file.ready[preg] <= now:
                    if file.inv[preg]:
                        inst.src_inv_mask |= 1
                else:
                    file.waiters[preg].append(inst)
                    pending += 1
        arch = inst.src2_arch
        if arch != NO_REG:
            if arch_inv[arch]:
                inst.src_inv_mask |= 2
            else:
                if arch < _NINT:
                    file = self.int_file
                    preg = front[0][arch]
                else:
                    file = self.fp_file
                    preg = front[1][arch - _NINT]
                inst.psrc2 = preg
                if file.ready[preg] <= now:
                    if file.inv[preg]:
                        inst.src_inv_mask |= 2
                else:
                    file.waiters[preg].append(inst)
                    pending += 1
        inst.pending_srcs = pending

        if dest_file is not None:
            # Inlined PhysRegFile.alloc (the free list was checked above).
            free = dest_file._free
            preg = free.pop()
            dest_file._allocated[preg] = True
            dest_file.ready[preg] = _NEVER
            dest_file.inv[preg] = False
            dest_file.pinned[preg] = False
            used = dest_file.size - len(free)
            if used > dest_file.high_water:
                dest_file.high_water = used
            if dest_arch < _NINT:
                klass = 0
                arch_index = dest_arch
            else:
                klass = 1
                arch_index = dest_arch - _NINT
            inst.pdest = preg
            fmap = front[klass]                  # inlined rename_dest
            inst.old_pdest = fmap[arch_index]
            fmap[arch_index] = preg
            thread.regs_held[klass] += 1
            # A renamed write supersedes any early-reclaimed INV producer.
            arch_inv[dest_arch] = False

        queue.size += 1                      # inlined insert, checked above
        queue.per_thread[inst.tid] += 1
        inst.in_iq = True
        if pending == 0:
            mask = inst.src_inv_mask         # inlined _operands_invalid
            if (mask & 1) if inst.is_store else mask:
                self._fold(inst, now)
            else:
                inst.state = _READY
                queue._ready.append(inst)    # inlined mark_ready
        return True

    def _rename_source(self, thread: ThreadContext, inst: DynInst,
                       which: int, now: int) -> int:
        """Rename one source; returns 1 if the operand is outstanding."""
        arch = inst.src1_arch if which == 1 else inst.src2_arch
        if arch == NO_REG:
            return 0
        if thread.arch_inv[arch]:
            # The producer's register was reclaimed early (INV recycling or
            # FP decode drop): the value is INV at architectural level;
            # nothing to wait for, no register to read.
            inst.src_inv_mask |= which
            return 0
        if arch < _NINT:
            file = self.int_file
            preg = thread.rename.front[0][arch]
        else:
            file = self.fp_file
            preg = thread.rename.front[1][arch - _NINT]
        if which == 1:
            inst.psrc1 = preg
        else:
            inst.psrc2 = preg
        if file.ready[preg] <= now:
            if file.inv[preg]:
                inst.src_inv_mask |= which
            return 0
        file.waiters[preg].append(inst)
        return 1

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
            if (now < thread.fetch_blocked_until     # inlined can_fetch
                    or now < thread.fetch_gated_until):
                self.gstats.fetch_conflicts += 1
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
        # Trace columns and address math, hoisted for the inlined
        # ThreadContext.next_inst below (this loop materializes every
        # dynamic instruction in the simulation).  The mode is stable
        # within a fetch block: runahead entry/exit happen at commit.
        # ``pcs_off``/``fetch_lines`` carry the thread's code offset and
        # the i-cache line index pre-folded (see __init__).
        pcs_off = thread.pcs_off
        lines = thread.fetch_lines
        ops = thread.ops
        dests = thread.dests
        src1s = thread.src1s
        src2s = thread.src2s
        addrs = thread.addrs
        takens = thread.takens
        tid = thread.tid
        data_base = thread.data_base
        pass_stride = thread._pass_stride
        data_region = thread.data_region
        trace_len = len(ops)
        in_runahead = thread.mode is _RUNAHEAD
        seq = thread.seq
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
            # Inlined thread.next_inst over the precomputed columns.
            pc = pcs_off[cursor]
            pass_no = thread.pass_no
            inst = DynInst(
                tid, seq, cursor, pass_no,
                ops[cursor], pc, 0,
                dests[cursor], src1s[cursor], src2s[cursor],
                takens[cursor],
            )
            inst.gseq = gseq
            gseq += 1
            if inst.is_mem:
                inst.addr = data_base + (
                    (addrs[cursor] + pass_no * pass_stride) % data_region)
            inst.runahead = in_runahead
            seq += 1
            cursor += 1
            if cursor >= trace_len:
                cursor = 0
                thread.pass_no = pass_no + 1
            inst.counted = True
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
            thread.seq = seq
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
