"""Specialized kernel generation: config-folded pipeline run loops.

For a given *machine shape* — the config scalars the stage loops read
every cycle, plus the folded policy facts the pipeline derives at
construction — :func:`emit_kernel_source` emits Python source for a
complete ``run``-equivalent loop with:

* the per-cycle ``step()``/``advance()``/stage dispatch collapsed into
  one loop body (no bound-method calls between stages);
* every per-call hoist the stage methods perform (``self.rob``,
  ``self.mem.data_access_packed``, trace columns, …) done **once per
  run** instead of once per stage call;
* config scalars folded to literals (width, fetch width/buffer,
  ROB/IQ capacities, FU counts, cache latencies, thread count — the
  rotation index becomes ``now & (NT-1)`` for power-of-two NT);
* policy hook presence resolved at generation time: a policy without
  ``on_cycle`` loses the per-cycle test entirely, a machine without
  runahead loses every ``thread.mode`` branch;
* the event-table call elided on cycles with no due bucket (sound
  because every ``_events`` key is pushed into ``_event_heap`` on
  bucket creation, and a call with no due bucket mutates nothing).

Correctness contract: the emitted body is a statement-for-statement
transcription of ``SMTPipeline.step`` / ``advance`` and the stage
bodies with constants folded — it must leave
bit-identical machine state and raise the same errors at the same
cycles.  Cold paths (event processing on due cycles, per-instruction
dispatch, folds, runahead transitions, misprediction repair, the skip
planner) stay out-of-line bound calls into the pipeline: they are
exercised through the exact same code as the python tier.

Generated kernels are keyed and memoized by :class:`KernelKey`
(:mod:`repro.core.kernel_cache`), so every pipeline with the same shape
shares one compiled loop; all run-specific objects arrive through the
``pipeline`` argument.  :func:`specialization_key` answers ``None`` for
anything outside the validated envelope (third-party policy classes,
more threads than the unrolled samplers cover) — the caller falls back
to the python tier, never errors (see :mod:`repro.sim.kernels`).
"""

from __future__ import annotations

import operator
from heapq import heappush
from typing import NamedTuple, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from ..isa import (IS_FP_BY_CODE, NO_REG, NUM_INT_ARCH_REGS,
                   OP_LATENCY_BY_CODE, OP_QUEUE_BY_CODE)
from .dyninst import DynInst, InstState
from .hookspec import kernel_covers_policy
from .regfile import NEVER
from .thread import ThreadMode
from . import pipeline as pipeline_mod

#: Threads beyond this fall back to the python tier: the termination
#: test, stat sampler and rotation tables are unrolled per thread.  The
#: golden cells cover 1/2/4 threads; the advance-vs-step fuzz and the
#: tier-parity suite add 3, 5, 6 and 8.
MAX_THREADS = 8


class KernelKey(NamedTuple):
    """The machine shape a generated kernel is specialized for.

    Everything here is either an :class:`SMTConfig` scalar (immutable
    after construction) or a pipeline fact derived once in
    ``SMTPipeline.__init__`` from the policy class/knobs.  Two pipelines
    with equal keys can share one compiled kernel; nothing run-specific
    may appear here.  ``skip_enabled`` is technically a mutable
    pipeline flag — the kernel resolver re-reads it per ``run()`` call,
    so flipping it between runs selects a different kernel rather than
    invalidating this one.
    """

    num_threads: int
    width: int
    fetch_threads: int
    fetch_buffer: int
    icache_latency: int
    dcache_latency: int
    l2_detect_latency: int
    rob_capacity: int
    iq_caps: Tuple[int, int, int]
    fu_caps: Tuple[int, int, int]
    uses_runahead: bool
    ra_fp_inval: bool
    has_on_cycle: bool
    skip_enabled: bool


def specialization_key(pipeline) -> Optional[KernelKey]:
    """The kernel key for this pipeline, or None if uncovered."""
    if not kernel_covers_policy(type(pipeline.policy)):
        return None
    if pipeline.num_threads > MAX_THREADS:
        return None
    fus = pipeline.fus
    queues = pipeline.queues
    return KernelKey(
        num_threads=pipeline.num_threads,
        width=pipeline._width,
        fetch_threads=pipeline._fetch_threads,
        fetch_buffer=pipeline._fetch_buffer_size,
        icache_latency=pipeline._icache_latency,
        dcache_latency=pipeline._dcache_latency,
        l2_detect_latency=pipeline._l2_detect_latency,
        rob_capacity=pipeline.rob.capacity,
        iq_caps=(queues[0].capacity, queues[1].capacity,
                 queues[2].capacity),
        fu_caps=(fus._capacity[0], fus._capacity[1], fus._capacity[2]),
        uses_runahead=pipeline._uses_runahead,
        ra_fp_inval=pipeline._ra_fp_inval,
        has_on_cycle=pipeline._policy_on_cycle is not None,
        skip_enabled=bool(pipeline.cycle_skip and pipeline._policy_skip_ok),
    )


def kernel_namespace() -> dict:
    """The globals dict a generated kernel executes against.

    Shares the *same objects* the interpreter tier uses, so enum
    members compare by identity.
    """
    return {
        "DynInst": DynInst,
        "DeadlockError": DeadlockError,
        "SimulationError": SimulationError,
        "heappush": heappush,
        "OP_LATENCY_BY_CODE": OP_LATENCY_BY_CODE,
        "OP_QUEUE_BY_CODE": OP_QUEUE_BY_CODE,
        "IS_FP_BY_CODE": IS_FP_BY_CODE,
        "NO_REG": NO_REG,
        "NINT": NUM_INT_ARCH_REGS,
        "NEVER": NEVER,
        "DISPATCHED": InstState.DISPATCHED,
        "READY": InstState.READY,
        "ISSUED": InstState.ISSUED,
        "COMPLETED": InstState.COMPLETED,
        "RETIRED": InstState.RETIRED,
        "SQUASHED": InstState.SQUASHED,
        "RUNAHEAD_MODE": ThreadMode.RUNAHEAD,
        "NORMAL_MODE": ThreadMode.NORMAL,
        "DEADLOCK_WINDOW": pipeline_mod._DEADLOCK_WINDOW,
        "inst_age": operator.attrgetter("gseq"),
    }


def _rotation_expr(key: KernelKey) -> str:
    nt = key.num_threads
    if nt == 1:
        return "rot0"
    if nt & (nt - 1) == 0:
        return f"rotations[now & {nt - 1}]"
    return f"rotations[now % {nt}]"


def _emit_hoists(key: KernelKey, emit) -> None:
    """Per-run hoists: every object here is construction-stable (the
    attribute-stability audit in the PR notes; ``IssueQueue._ready`` is
    the one rebound attribute and is deliberately *not* hoisted)."""
    emit("    threads = pipeline.threads")
    for i in range(key.num_threads):
        emit(f"    t{i} = threads[{i}]")
        emit(f"    t{i}_stats = t{i}.stats")
        emit(f"    t{i}_held = t{i}.regs_held")
    if key.num_threads == 1:
        emit("    rot0 = pipeline._rotations[0]")
    else:
        emit("    rotations = pipeline._rotations")
    emit("    rob = pipeline.rob")
    emit("    rob_queues = rob._queues")
    emit("    rob_pt = rob.per_thread")
    emit("    queues = pipeline.queues")
    emit("    q0 = queues[0]")
    emit("    q1 = queues[1]")
    emit("    q2 = queues[2]")
    emit("    q0_pt = q0.per_thread")
    emit("    q1_pt = q1.per_thread")
    emit("    q2_pt = q2.per_thread")
    emit(f"    iq_caps = ({key.iq_caps[0]}, {key.iq_caps[1]}, "
         f"{key.iq_caps[2]})")
    emit("    int_file = pipeline.int_file")
    emit("    fp_file = pipeline.fp_file")
    emit("    available = pipeline.fus._available")
    emit("    issued = pipeline.fus.issued")
    emit("    events = pipeline._events")
    emit("    heap = pipeline._event_heap")
    emit("    fold_worklist = pipeline._fold_worklist")
    emit("    gstats = pipeline.gstats")
    emit("    mem = pipeline.mem")
    emit("    data_access = mem.data_access_packed")
    emit("    ifetch_packed = mem.ifetch_packed")
    emit("    predictor_predict = pipeline.predictor.predict")
    emit("    btb_lookup = pipeline.btb.lookup_and_insert")
    emit("    fetch_order = pipeline.policy.fetch_order")
    if key.has_on_cycle:
        emit("    policy_on_cycle = pipeline._policy_on_cycle")
    emit("    fold = pipeline._fold")
    emit("    drain_folds = pipeline._drain_folds")
    emit("    release_preg = pipeline._release_preg")
    emit("    resolve_mispred = pipeline._resolve_misprediction")
    emit("    on_l2_detected = pipeline._on_l2_detected")
    emit("    schedule = pipeline.schedule")
    if key.uses_runahead:
        emit("    runahead = pipeline.runahead")
        emit("    ra_exit = runahead.exit")
        emit("    should_enter = runahead.should_enter")
        emit("    on_runahead_store = runahead.on_runahead_store")
        emit("    ra_prefetch = runahead.prefetch")
        emit("    ra_stop_fetch = runahead.stop_fetch_on_l2_miss")
        emit("    load_forward = runahead.load_forward_validity")
        emit("    peek_data = mem.peek_data")
        emit("    enter_runahead = pipeline._enter_runahead")
    if key.skip_enabled:
        emit("    skip_target = pipeline._skip_target")
        emit("    skip_to = pipeline._skip_to")
    # Namespace constants pulled into fast locals.
    emit("    no_reg = NO_REG")
    emit("    nint = NINT")
    emit("    dispatched_state = DISPATCHED")
    emit("    ready_state = READY")
    emit("    issued_state = ISSUED")
    emit("    completed_state = COMPLETED")
    emit("    retired_state = RETIRED")
    if key.uses_runahead:
        emit("    ra_mode = RUNAHEAD_MODE")
        emit("    normal_mode = NORMAL_MODE")
    emit("    never = NEVER")
    emit("    op_latency = OP_LATENCY_BY_CODE")
    emit("    op_queue = OP_QUEUE_BY_CODE")
    if key.uses_runahead:
        emit("    is_fp_code = IS_FP_BY_CODE")
    emit("    cycle = pipeline.cycle")


def _emit_events(key: KernelKey, emit) -> None:
    """Inlined ``_process_events``, call-elided on undue cycles.

    Elision soundness: a call with no bucket at ``now`` pops nothing,
    prunes only keys <= now (none exist unless ``heap[0] <= now``) and
    returns before the fold drain — so skipping it mutates nothing.
    """
    ur = key.uses_runahead
    emit("        if heap and heap[0] <= now:")
    emit("            bucket = events.pop(now, None)")
    emit("            while heap and heap[0] <= now and heap[0] not in events:")
    emit("                heap_pop(heap)")
    emit("            if bucket:")
    emit("                for kind, inst in bucket:")
    emit("                    state = inst.state")
    emit("                    if state == squashed_state or state == retired_state:")
    emit("                        continue")
    emit("                    if kind == 0:")
    emit("                        if state == issued_state:")
    emit("                            inst.state = completed_state")
    emit("                            thread = threads[inst.tid]")
    emit("                            if inst.l2_counted:")
    emit("                                inst.l2_counted = False")
    emit("                                thread.pending_l2_misses -= 1")
    emit("                            preg = inst.pdest")
    emit("                            if preg != no_reg:")
    emit("                                invalid = inst.invalid")
    emit("                                file = (int_file if inst.dest_arch < nint")
    emit("                                        else fp_file)")
    emit("                                file.ready[preg] = now")
    emit("                                file.inv[preg] = invalid")
    emit("                                woken = file.waiters[preg]")
    emit("                                if woken:")
    emit("                                    file.waiters[preg] = []")
    emit("                                    for waiter in woken:")
    emit("                                        if waiter.state != dispatched_state:")
    emit("                                            continue")
    emit("                                        if invalid:")
    emit("                                            if waiter.psrc1 == preg:")
    emit("                                                waiter.src_inv_mask |= 1")
    emit("                                            if waiter.psrc2 == preg:")
    emit("                                                waiter.src_inv_mask |= 2")
    emit("                                        pending = waiter.pending_srcs - 1")
    emit("                                        waiter.pending_srcs = pending")
    emit("                                        if pending > 0:")
    emit("                                            continue")
    emit("                                        wmask = waiter.src_inv_mask")
    emit("                                        if ((wmask & 1) if waiter.is_store")
    emit("                                                else wmask):")
    emit("                                            fold_worklist.append(waiter)")
    emit("                                        else:")
    emit("                                            waiter.state = ready_state")
    emit("                                            queues[op_queue[waiter.op]]"
         "._ready.append(waiter)")
    if ur:
        # Inlined _recycle_runahead_dest; inst.pdest == preg != NO_REG
        # holds here (guarded above), so the entry check is elided.
        emit("                                if invalid and thread.mode is ra_mode:")
        emit("                                    dest_arch = inst.dest_arch")
        emit("                                    if dest_arch < nint:")
        emit("                                        klass = 0")
        emit("                                        arch_index = dest_arch")
        emit("                                    else:")
        emit("                                        klass = 1")
        emit("                                        arch_index = dest_arch - nint")
        emit("                                    if not file.pinned[preg]:")
        emit("                                        front = thread.rename.front[klass]")
        emit("                                        if front[arch_index] == preg:")
        emit("                                            front[arch_index] = (thread")
        emit("                                                .rename.arch[klass]"
             "[arch_index])")
        emit("                                            if not file._allocated[preg]:")
        emit("                                                raise SimulationError(")
        emit("                                                    f\"{file.name}: double"
             " release of p{preg}\")")
        emit("                                            file._allocated[preg] = False")
        emit("                                            file.waiters[preg].clear()")
        emit("                                            file._free.append(preg)")
        emit("                                            thread.regs_held[klass] -= 1")
        emit("                                            thread.arch_inv[dest_arch]"
             " = invalid")
        emit("                                            inst.pdest = no_reg")
    emit("                            if (inst.is_branch and not inst.invalid")
    emit("                                    and inst.mispredicted):")
    emit("                                resolve_mispred(inst, now)")
    emit("                    elif kind == 1:")
    emit("                        if state < retired_state:")
    emit("                            on_l2_detected(inst, now)")
    emit("                if fold_worklist:")
    emit("                    drain_folds(now)")


def _emit_commit(key: KernelKey, emit) -> None:
    ur = key.uses_runahead
    emit(f"        commit_budget = {key.width}")
    emit(f"        for thread in {_rotation_expr(key)}:")
    if ur:
        emit("            if (thread.mode is ra_mode")
        emit("                    and now >= thread.runahead_trigger_ready):")
        emit("                ra_exit(thread, now)")
        emit("                continue")
    emit("            tid = thread.tid")
    emit("            window = rob_queues[tid]")
    emit("            if not window:")
    emit("                continue")
    emit("            stats = thread.stats")
    body_indent = "            "
    if ur:
        emit("            if thread.mode is normal_mode:")
        body_indent = "                "
    prefix = body_indent
    emit(prefix + "last_index = thread.last_index")
    emit(prefix + "rename = thread.rename")
    emit(prefix + "while commit_budget > 0 and window:")
    emit(prefix + "    head = window[0]")
    emit(prefix + "    if head.state == completed_state:")
    emit(prefix + "        window.popleft()")
    emit(prefix + "        rob._occupancy -= 1")
    emit(prefix + "        rob_pt[tid] -= 1")
    emit(prefix + "        head.state = retired_state")
    emit(prefix + "        stats.committed += 1")
    emit(prefix + "        gstats.committed += 1")
    emit(prefix + "        pipeline._last_commit_cycle = now")
    emit(prefix + "        commit_budget -= 1")
    emit(prefix + "        dest_arch = head.dest_arch")
    emit(prefix + "        if head.pdest != no_reg:")
    emit(prefix + "            if dest_arch < nint:")
    emit(prefix + "                klass = 0")
    emit(prefix + "                arch_index = dest_arch")
    emit(prefix + "            else:")
    emit(prefix + "                klass = 1")
    emit(prefix + "                arch_index = dest_arch - nint")
    emit(prefix + "            old = rename.commit_dest(")
    emit(prefix + "                klass, arch_index, head.pdest)")
    emit(prefix + "            if old != head.pdest:")
    emit(prefix + "                release_preg(thread, klass, old)")
    emit(prefix + "        if head.is_store:")
    emit(prefix + "            data_access(head.addr, True, now, tid)")
    emit(prefix + "        if head.trace_index == last_index:")
    emit(prefix + "            thread.finished_passes += 1")
    emit(prefix + "            stats.passes += 1")
    if ur:
        emit(prefix + "    elif (head.l2_miss")
        emit(prefix + "          and should_enter(thread, head, now)):")
        emit(prefix + "        enter_runahead(thread, head, now)")
        emit(prefix + "        commit_budget -= 1")
        emit(prefix + "        break")
    emit(prefix + "    else:")
    emit(prefix + "        break")
    if ur:
        emit("            else:")
        emit("                while commit_budget > 0 and window:")
        emit("                    head = window[0]")
        emit("                    if head.state != completed_state:")
        emit("                        break")
        emit("                    window.popleft()")
        emit("                    rob._occupancy -= 1")
        emit("                    rob_pt[tid] -= 1")
        emit("                    head.state = retired_state")
        emit("                    stats.pseudo_retired += 1")
        emit("                    pipeline._last_commit_cycle = now")
        emit("                    commit_budget -= 1")
        emit("                    dest_arch = head.dest_arch")
        emit("                    if dest_arch == no_reg:")
        emit("                        continue")
        emit("                    if dest_arch < nint:")
        emit("                        klass = 0")
        emit("                        file = int_file")
        emit("                    else:")
        emit("                        klass = 1")
        emit("                        file = fp_file")
        emit("                    old = head.old_pdest")
        emit("                    if old != no_reg and not file.pinned[old]:")
        emit("                        if not file._allocated[old]:")
        emit("                            raise SimulationError(")
        emit("                                f\"{file.name}: double release of p{old}\")")
        emit("                        file._allocated[old] = False")
        emit("                        file.waiters[old].clear()")
        emit("                        file._free.append(old)")
        emit("                        thread.regs_held[klass] -= 1")
        # Inlined _recycle_runahead_dest: klass/file/arch_index reuse the
        # values just computed for the old_pdest release above.
        emit("                    preg = head.pdest")
        emit("                    if preg != no_reg and not file.pinned[preg]:")
        emit("                        arch_index = (dest_arch if klass == 0")
        emit("                                      else dest_arch - nint)")
        emit("                        front = thread.rename.front[klass]")
        emit("                        if front[arch_index] == preg:")
        emit("                            front[arch_index] = (")
        emit("                                thread.rename.arch[klass][arch_index])")
        emit("                            if not file._allocated[preg]:")
        emit("                                raise SimulationError(")
        emit("                                    f\"{file.name}: double release"
             " of p{preg}\")")
        emit("                            file._allocated[preg] = False")
        emit("                            file.waiters[preg].clear()")
        emit("                            file._free.append(preg)")
        emit("                            thread.regs_held[klass] -= 1")
        emit("                            thread.arch_inv[dest_arch] = head.invalid")
        emit("                            head.pdest = no_reg")
    emit("            if commit_budget <= 0:")
    emit("                break")


def _emit_issue_queue(key: KernelKey, emit, qk: int) -> None:
    """One unrolled issue-queue block (``take_ready`` + issue inlined).

    The FU-kind lookup ``OP_FU_BY_CODE[inst.op]`` is folded to the
    queue-kind literal: the OP_QUEUE/OP_FU tables coincide per op code
    (asserted at import by :mod:`repro.core.kernel_cache`).
    """
    ur = key.uses_runahead
    q = f"q{qk}"
    emit(f"        ready = {q}._ready")
    emit("        if ready:")
    emit(f"            limit = available[{qk}]")
    emit("            if limit > 0:")
    emit("                for inst in ready:")
    emit("                    if inst.state != ready_state:")
    emit("                        live = [inst for inst in ready")
    emit("                                if inst.state == ready_state]")
    emit(f"                        {q}._ready = live")
    emit("                        break")
    emit("                else:")
    emit("                    live = ready")
    emit("                if live:")
    emit("                    if len(live) > limit:")
    emit("                        live.sort(key=inst_age)")
    emit("                        selected = live[:limit]")
    emit(f"                        {q}._ready = live[limit:]")
    emit("                    else:")
    emit("                        selected = live")
    emit(f"                        {q}._ready = []")
    emit(f"                    if {q}._replay_blocked:")
    emit("                        for inst in selected:")
    emit("                            if inst.replay:")
    emit("                                inst.replay = False")
    emit(f"                                {q}._replay_blocked -= 1")
    emit("                    for inst in selected:")
    emit("                        tid = inst.tid")
    emit("                        thread = threads[tid]")
    emit("                        if inst.is_load:")
    load_indent = "                            "
    if ur:
        # Inlined _issue_runahead_load (dcache/L2-detect latencies folded;
        # gate_fetch_until is a max-update, inlined too).
        emit("                            if thread.mode is ra_mode:")
        r = "                                "
        emit(r + "forwarded = load_forward(thread, inst)")
        emit(r + "if forwarded is not None:")
        emit(r + "    inst.invalid = not forwarded")
        emit(r + f"    ccycle = now + {key.dcache_latency}")
        emit(r + "elif not ra_prefetch:")
        emit(r + "    level = peek_data(inst.addr)")
        emit(r + "    if level == \"l1\":")
        emit(r + f"        ccycle = now + {key.dcache_latency}")
        emit(r + "    elif level == \"l2\":")
        emit(r + f"        ccycle = now + {key.l2_detect_latency}")
        emit(r + "    else:")
        emit(r + "        inst.invalid = True")
        emit(r + f"        ccycle = now + {key.l2_detect_latency}")
        emit(r + "        thread.no_retrigger.add(")
        emit(r + "            inst.pass_no * thread.retrigger_stride")
        emit(r + "            + inst.trace_index)")
        emit(r + "else:")
        emit(r + "    packed = data_access(inst.addr, False, now,")
        emit(r + "                         tid, speculative=True)")
        emit(r + "    if packed < 0:")
        emit(r + "        inst.invalid = True")
        emit(r + f"        ccycle = now + {key.dcache_latency}")
        emit(r + "    elif packed & 2:")
        emit(r + "        inst.invalid = True")
        emit(r + f"        ccycle = min(packed >> 2, now + {key.l2_detect_latency})")
        emit(r + "        if ra_stop_fetch:")
        emit(r + "            trigger = thread.runahead_trigger_ready")
        emit(r + "            if trigger > thread.fetch_gated_until:")
        emit(r + "                thread.fetch_gated_until = trigger")
        emit(r + "    else:")
        emit(r + "        ccycle = packed >> 2")
        emit(r + "inst.complete_cycle = ccycle")
        emit(r + "bucket = events.get(ccycle)")
        emit(r + "if bucket is None:")
        emit(r + "    events[ccycle] = [(0, inst)]")
        emit(r + "    heappush(heap, ccycle)")
        emit(r + "else:")
        emit(r + "    bucket.append((0, inst))")
        emit("                            else:")
        load_indent = "                                "
    p = load_indent
    emit(p + "packed = data_access(inst.addr, False, now, tid)")
    emit(p + "if packed < 0:")
    emit(p + f"    {q}.requeue(inst, replay=True)")
    emit(p + "    continue")
    emit(p + "ccycle = packed >> 2")
    emit(p + "inst.complete_cycle = ccycle")
    emit(p + "bucket = events.get(ccycle)")
    emit(p + "if bucket is None:")
    emit(p + "    events[ccycle] = [(0, inst)]")
    emit(p + "    heappush(heap, ccycle)")
    emit(p + "else:")
    emit(p + "    bucket.append((0, inst))")
    emit(p + "if packed & 2:")
    emit(p + f"    detect = min(ccycle, now + {key.l2_detect_latency})")
    emit(p + "    schedule(detect, 1, inst)")
    emit("                        elif inst.is_store:")
    emit("                            ccycle = now + 1")
    emit("                            inst.complete_cycle = ccycle")
    emit("                            bucket = events.get(ccycle)")
    emit("                            if bucket is None:")
    emit("                                events[ccycle] = [(0, inst)]")
    emit("                                heappush(heap, ccycle)")
    emit("                            else:")
    emit("                                bucket.append((0, inst))")
    if ur:
        emit("                            if thread.mode is ra_mode:")
        emit("                                data_valid = not (inst.src_inv_mask & 2)")
        emit("                                on_runahead_store(thread, inst, data_valid)")
        emit("                                if ra_prefetch:")
        emit("                                    data_access(inst.addr, True, now,")
        emit("                                                tid, speculative=True)")
    emit("                        else:")
    emit("                            ccycle = now + op_latency[inst.op]")
    emit("                            inst.complete_cycle = ccycle")
    emit("                            bucket = events.get(ccycle)")
    emit("                            if bucket is None:")
    emit("                                events[ccycle] = [(0, inst)]")
    emit("                                heappush(heap, ccycle)")
    emit("                            else:")
    emit("                                bucket.append((0, inst))")
    emit(f"                        available[{qk}] -= 1")
    emit(f"                        issued[{qk}] += 1")
    emit("                        inst.state = issued_state")
    emit("                        inst.in_iq = False")
    emit(f"                        {q}.size -= 1")
    emit(f"                        {q}_pt[tid] -= 1")
    emit("                        if inst.counted:")
    emit("                            inst.counted = False")
    emit("                            thread.icount -= 1")
    emit("                        stats = thread.stats")
    emit("                        stats.issued += 1")
    emit("                        stats.executed += 1")
    emit("                        gstats.executed += 1")


def _emit_issue(key: KernelKey, emit) -> None:
    """The full issue stage: one unrolled block per queue, MEM first
    (matching ``_issue_stage``'s (2, 0, 1) order), then the fold drain."""
    for qk in (2, 0, 1):
        _emit_issue_queue(key, emit, qk)
    emit("        if fold_worklist:")
    emit("            drain_folds(now)")


def _emit_dispatch(key: KernelKey, emit) -> None:
    """Dispatch stage with ``_dispatch`` itself transcribed inline.

    The per-thread rename hoists (``front0``/``front1``/``arch_inv``) are
    sound within the stage: runahead entry/exit — the only events that
    swap a thread's rename maps — happen at commit, earlier in the same
    cycle, never between two dispatches of one stage pass.
    """
    ur = key.uses_runahead
    sync = pipeline_mod._SYNC_CODE
    emit(f"        dispatch_budget = {key.width}")
    emit(f"        for thread in {_rotation_expr(key)}:")
    emit("            fetch_queue = thread.fetch_queue")
    emit("            tid = thread.tid")
    emit("            if dispatch_budget > 0 and fetch_queue:")
    emit("                robq = rob_queues[tid]")
    emit("                stats = thread.stats")
    emit("                arch_inv = thread.arch_inv")
    emit("                front = thread.rename.front")
    emit("                front0 = front[0]")
    emit("                front1 = front[1]")
    emit("                while dispatch_budget > 0 and fetch_queue:")
    emit(f"                    if rob._occupancy >= {key.rob_capacity}:")
    emit("                        gstats.dispatch_stalls += 1")
    emit("                        break")
    emit("                    inst = fetch_queue[0]")
    emit("                    op = inst.op")
    if ur:
        if key.ra_fp_inval:
            emit("                    if thread.mode is ra_mode and (")
            emit(f"                            is_fp_code[op] or op == {sync}):")
        else:
            emit(f"                    if thread.mode is ra_mode and op == {sync}:")
        emit("                        robq.append(inst)")
        emit("                        rob._occupancy += 1")
        emit("                        rob_pt[tid] += 1")
        emit("                        inst.state = completed_state")
        emit("                        inst.invalid = True")
        emit("                        inst.complete_cycle = now")
        emit("                        if inst.counted:")
        emit("                            inst.counted = False")
        emit("                            thread.icount -= 1")
        if key.ra_fp_inval:
            emit("                        if (is_fp_code[op]")
            emit("                                and inst.dest_arch != no_reg):")
            emit("                            arch_inv[inst.dest_arch] = True")
        emit("                        stats.dispatched += 1")
        emit("                        stats.folded += 1")
        emit("                        fetch_queue.popleft()")
        emit("                        dispatch_budget -= 1")
        emit("                        continue")
    emit("                    qk = op_queue[op]")
    emit("                    queue = queues[qk]")
    emit("                    if queue.size >= iq_caps[qk]:")
    emit("                        gstats.dispatch_stalls += 1")
    emit("                        break")
    emit("                    dest_arch = inst.dest_arch")
    emit("                    if dest_arch != no_reg:")
    emit("                        dest_file = (int_file if dest_arch < nint")
    emit("                                     else fp_file)")
    emit("                        if not dest_file._free:")
    emit("                            gstats.dispatch_stalls += 1")
    emit("                            break")
    emit("                    else:")
    emit("                        dest_file = None")
    emit("                    robq.append(inst)")
    emit("                    rob._occupancy += 1")
    emit("                    rob_pt[tid] += 1")
    emit("                    inst.state = dispatched_state")
    emit("                    stats.dispatched += 1")
    emit("                    pending = 0")
    emit("                    arch = inst.src1_arch")
    emit("                    if arch != no_reg:")
    emit("                        if arch_inv[arch]:")
    emit("                            inst.src_inv_mask |= 1")
    emit("                        else:")
    emit("                            if arch < nint:")
    emit("                                file = int_file")
    emit("                                preg = front0[arch]")
    emit("                            else:")
    emit("                                file = fp_file")
    emit("                                preg = front1[arch - nint]")
    emit("                            inst.psrc1 = preg")
    emit("                            if file.ready[preg] <= now:")
    emit("                                if file.inv[preg]:")
    emit("                                    inst.src_inv_mask |= 1")
    emit("                            else:")
    emit("                                file.waiters[preg].append(inst)")
    emit("                                pending += 1")
    emit("                    arch = inst.src2_arch")
    emit("                    if arch != no_reg:")
    emit("                        if arch_inv[arch]:")
    emit("                            inst.src_inv_mask |= 2")
    emit("                        else:")
    emit("                            if arch < nint:")
    emit("                                file = int_file")
    emit("                                preg = front0[arch]")
    emit("                            else:")
    emit("                                file = fp_file")
    emit("                                preg = front1[arch - nint]")
    emit("                            inst.psrc2 = preg")
    emit("                            if file.ready[preg] <= now:")
    emit("                                if file.inv[preg]:")
    emit("                                    inst.src_inv_mask |= 2")
    emit("                            else:")
    emit("                                file.waiters[preg].append(inst)")
    emit("                                pending += 1")
    emit("                    inst.pending_srcs = pending")
    emit("                    if dest_file is not None:")
    emit("                        free = dest_file._free")
    emit("                        preg = free.pop()")
    emit("                        dest_file._allocated[preg] = True")
    emit("                        dest_file.ready[preg] = never")
    emit("                        dest_file.inv[preg] = False")
    emit("                        dest_file.pinned[preg] = False")
    emit("                        used = dest_file.size - len(free)")
    emit("                        if used > dest_file.high_water:")
    emit("                            dest_file.high_water = used")
    emit("                        if dest_arch < nint:")
    emit("                            klass = 0")
    emit("                            arch_index = dest_arch")
    emit("                            fmap = front0")
    emit("                        else:")
    emit("                            klass = 1")
    emit("                            arch_index = dest_arch - nint")
    emit("                            fmap = front1")
    emit("                        inst.pdest = preg")
    emit("                        inst.old_pdest = fmap[arch_index]")
    emit("                        fmap[arch_index] = preg")
    emit("                        thread.regs_held[klass] += 1")
    emit("                        arch_inv[dest_arch] = False")
    emit("                    queue.size += 1")
    emit("                    queue.per_thread[tid] += 1")
    emit("                    inst.in_iq = True")
    emit("                    if pending == 0:")
    emit("                        mask = inst.src_inv_mask")
    emit("                        if (mask & 1) if inst.is_store else mask:")
    emit("                            fold(inst, now)")
    emit("                        else:")
    emit("                            inst.state = ready_state")
    emit("                            queue._ready.append(inst)")
    emit("                    fetch_queue.popleft()")
    emit("                    dispatch_budget -= 1")
    emit("            if dispatch_budget <= 0:")
    emit("                break")
    emit("        if fold_worklist:")
    emit("            drain_folds(now)")


def _emit_fetch(key: KernelKey, emit) -> None:
    ur = key.uses_runahead
    emit("        order = fetch_order(now)")
    emit("        fetched_total = 0")
    emit("        threads_used = 0")
    emit("        for tid in order:")
    emit(f"            if threads_used >= {key.fetch_threads}:")
    emit("                break")
    emit(f"            if fetched_total >= {key.width}:")
    emit("                break")
    emit("            thread = threads[tid]")
    emit("            if (now < thread.fetch_blocked_until")
    emit("                    or now < thread.fetch_gated_until):")
    emit("                gstats.fetch_conflicts += 1")
    emit("                continue")
    emit("            fetch_queue = thread.fetch_queue")
    emit(f"            buffer_room = {key.fetch_buffer} - len(fetch_queue)")
    emit("            if buffer_room <= 0:")
    emit("                continue")
    emit(f"            limit = {key.width} - fetched_total")
    emit("            if buffer_room < limit:")
    emit("                limit = buffer_room")
    emit("            count = 0")
    emit(f"            icache_done = now + {key.icache_latency}")
    emit("            stats = thread.stats")
    emit("            gseq = pipeline._gseq")
    emit("            pcs_off = thread.pcs_off")
    emit("            lines = thread.fetch_lines")
    emit("            ops = thread.ops")
    emit("            dests = thread.dests")
    emit("            src1s = thread.src1s")
    emit("            src2s = thread.src2s")
    emit("            addrs = thread.addrs")
    emit("            takens = thread.takens")
    emit("            data_base = thread.data_base")
    emit("            pass_stride = thread._pass_stride")
    emit("            data_region = thread.data_region")
    emit("            trace_len = len(ops)")
    if ur:
        emit("            in_runahead = thread.mode is ra_mode")
    emit("            seq = thread.seq")
    emit("            cursor = thread.cursor")
    emit("            append = fetch_queue.append")
    emit("            while count < limit:")
    emit("                line = lines[cursor]")
    emit("                if line != thread.fetch_line:")
    if ur:
        emit("                    complete = ifetch_packed(")
        emit("                        pcs_off[cursor], now, tid,")
        emit("                        speculative=in_runahead) >> 2")
    else:
        emit("                    complete = ifetch_packed(")
        emit("                        pcs_off[cursor], now, tid,")
        emit("                        speculative=False) >> 2")
    emit("                    thread.fetch_line = line")
    emit("                    if complete > icache_done:")
    emit("                        if complete > thread.fetch_blocked_until:")
    emit("                            thread.fetch_blocked_until = complete")
    emit("                        break")
    emit("                pc = pcs_off[cursor]")
    emit("                pass_no = thread.pass_no")
    emit("                inst = DynInst(")
    emit("                    tid, seq, cursor, pass_no,")
    emit("                    ops[cursor], pc, 0,")
    emit("                    dests[cursor], src1s[cursor], src2s[cursor],")
    emit("                    takens[cursor],")
    emit("                )")
    emit("                inst.gseq = gseq")
    emit("                gseq += 1")
    emit("                if inst.is_mem:")
    emit("                    inst.addr = data_base + (")
    emit("                        (addrs[cursor] + pass_no * pass_stride)")
    emit("                        % data_region)")
    emit("                seq += 1")
    emit("                cursor += 1")
    emit("                if cursor >= trace_len:")
    emit("                    cursor = 0")
    emit("                    thread.pass_no = pass_no + 1")
    emit("                inst.counted = True")
    emit("                append(inst)")
    emit("                count += 1")
    emit("                if inst.is_branch:")
    emit("                    stats.branches += 1")
    emit("                    correct = predictor_predict(tid, pc, inst.taken)")
    emit("                    inst.mispredicted = not correct")
    emit("                    if inst.taken:")
    emit("                        if not btb_lookup(pc):")
    emit("                            blocked = now + 2")
    emit("                            if blocked > thread.fetch_blocked_until:")
    emit("                                thread.fetch_blocked_until = blocked")
    emit("                        break")
    emit("            thread.cursor = cursor")
    emit("            if count:")
    emit("                pipeline._gseq = gseq")
    emit("                thread.seq = seq")
    emit("                thread.icount += count")
    emit("                stats.fetched += count")
    emit("                fetched_total += count")
    emit("                threads_used += 1")


def _emit_sample(key: KernelKey, emit) -> None:
    for i in range(key.num_threads):
        emit(f"        held = t{i}_held[0] + t{i}_held[1]")
        if key.uses_runahead:
            emit(f"        if t{i}.mode is ra_mode:")
            emit(f"            t{i}_stats.runahead_cycles += 1")
            emit(f"            t{i}_stats.runahead_reg_samples += 1")
            emit(f"            t{i}_stats.runahead_regs_held += held")
            emit("        else:")
            emit(f"            t{i}_stats.normal_reg_samples += 1")
            emit(f"            t{i}_stats.normal_regs_held += held")
        else:
            emit(f"        t{i}_stats.normal_reg_samples += 1")
            emit(f"        t{i}_stats.normal_regs_held += held")
    emit("        gstats.cycles += 1")


def emit_kernel_source(key: KernelKey) -> str:
    """Emit the full specialized run-loop source for one machine shape."""
    out = []
    emit = out.append
    emit("from heapq import heappop as heap_pop")
    emit("")
    emit("")
    emit("def _kernel_run(pipeline, min_passes, cap,")
    emit("                squashed_state=SQUASHED):")
    _emit_hoists(key, emit)
    emit("    while True:")
    done = " and ".join(f"t{i}.finished_passes >= min_passes"
                        for i in range(key.num_threads))
    emit(f"        if {done}:")
    emit("            return False")
    emit("        if cycle >= cap:")
    emit("            return True")
    emit("        now = cycle")
    if key.skip_enabled:
        emit("        gseq_before = pipeline._gseq")
        emit("        committed_before = gstats.committed")
        emit("        executed_before = gstats.executed")
    emit("        # ---- step: FU reset + events ----")
    emit(f"        available[0] = {key.fu_caps[0]}")
    emit(f"        available[1] = {key.fu_caps[1]}")
    emit(f"        available[2] = {key.fu_caps[2]}")
    _emit_events(key, emit)
    if key.has_on_cycle:
        emit("        policy_on_cycle(now)")
    emit("        # ---- commit stage ----")
    _emit_commit(key, emit)
    emit("        # ---- issue stage ----")
    _emit_issue(key, emit)
    emit("        # ---- dispatch stage ----")
    _emit_dispatch(key, emit)
    emit("        # ---- fetch stage ----")
    _emit_fetch(key, emit)
    emit("        # ---- stat sampling ----")
    _emit_sample(key, emit)
    emit("        cycle = now + 1")
    emit("        pipeline.cycle = cycle")
    emit("        if now - pipeline._last_commit_cycle > DEADLOCK_WINDOW:")
    emit("            raise DeadlockError(now,")
    emit("                                \"no instruction committed recently\")")
    if key.skip_enabled:
        emit("        # ---- advance: quiescence precheck + skip ----")
        emit("        if (pipeline._gseq != gseq_before")
        emit("                or gstats.committed != committed_before")
        emit("                or gstats.executed != executed_before):")
        emit("            continue")
        emit("        target = skip_target(cycle, cap)")
        emit("        if target > cycle:")
        emit("            skip_to(cycle, target)")
        emit("            cycle = target")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# tier-sync fragment declarations
#
# Each entry ties one emitter above to the pipeline function it
# transcribes and declares the *complete* substitution algebra relating
# the two spellings, so `repro lint` (rule `tier-sync`, see
# repro.analysis.tiersync) can machine-verify the transcription: it
# applies these operations to the python-tier AST and requires the
# result to be structurally identical to the emitted kernel fragment
# for TIERSYNC_KEY.  Editing a hot path without mirroring the emitter —
# or doing a restructure without declaring it here — fails the lint.

#: The representative shape the congruence check runs against: the
#: 4-thread runahead configuration with every optional feature enabled,
#: so no emitter branch is dead during the comparison.
TIERSYNC_KEY = KernelKey(
    num_threads=4,
    width=8,
    fetch_threads=2,
    fetch_buffer=16,
    icache_latency=3,
    dcache_latency=2,
    l2_detect_latency=9,
    rob_capacity=96,
    iq_caps=(48, 40, 24),
    fu_caps=(6, 5, 4),
    uses_runahead=True,
    ra_fp_inval=True,
    has_on_cycle=True,
    skip_enabled=True,
)


def _tiersync_fragments(key: KernelKey) -> tuple:
    return (
        {
            "name": "events",
            "source": ("core/pipeline.py", "SMTPipeline._process_events"),
            "emitter": "_emit_events",
            "covers": (
                ("core/pipeline.py", "SMTPipeline._process_events"),
                ("core/pipeline.py", "SMTPipeline._src_ready"),
                ("core/pipeline.py", "SMTPipeline._operands_invalid"),
                ("core/pipeline.py", "SMTPipeline._recycle_runahead_dest"),
            ),
            # The kernel elides the whole call on undue cycles (the
            # soundness argument lives on _emit_events).
            "wrap": "if heap and heap[0] <= now:\n    __BODY__",
            "subs": [
                # _src_ready is spliced per-waiter; its early returns
                # become loop continues.
                ("inline", ("core/pipeline.py", "SMTPipeline._src_ready"),
                 "src_ready(waiter, now, preg, invalid)",
                 "__INLINE__",
                 {"bind": {"inst": "waiter"},
                  "returns": ["continue", "continue"]}),
                # Per-run hoists (done once in _emit_hoists).
                ("stmt", "events = self._events", ""),
                ("stmt", "heap = self._event_heap", ""),
                ("stmt", "threads = self.threads", ""),
                ("stmt", "int_file = self.int_file", ""),
                ("stmt", "fp_file = self.fp_file", ""),
                ("stmt", "src_ready = self._src_ready", ""),
                # Early return inverted into a guard under the wrap.
                ("stmt",
                 "if not bucket:\n"
                 "    return\n"
                 "__REST__",
                 "if bucket:\n"
                 "    __REST__"),
                ("rename", "heappop", "heap_pop"),
                ("rename", "_SQUASHED", "squashed_state"),
                ("rename", "_RETIRED", "retired_state"),
                ("rename", "_ISSUED", "issued_state"),
                ("rename", "_COMPLETED", "completed_state"),
                ("rename", "_DISPATCHED", "dispatched_state"),
                ("rename", "_READY", "ready_state"),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("rename", "OP_QUEUE_BY_CODE", "op_queue"),
                ("expr", "_EV_COMPLETE", "0"),
                ("expr", "_EV_L2_DETECT", "1"),
                ("expr", "NO_REG", "no_reg"),
                ("expr", "_NINT", "nint"),
                ("expr", "self.queues", "queues"),
                ("expr", "self._fold_worklist", "fold_worklist"),
                ("expr", "self._drain_folds", "drain_folds"),
                ("expr", "self._resolve_misprediction", "resolve_mispred"),
                ("expr", "self._on_l2_detected", "on_l2_detected"),
                # The wakeup decrement keeps the new count in a local
                # (one attribute read instead of two).
                ("stmt",
                 "waiter.pending_srcs -= 1\n"
                 "if waiter.pending_srcs > 0:\n"
                 "    continue",
                 "pending = waiter.pending_srcs - 1\n"
                 "waiter.pending_srcs = pending\n"
                 "if pending > 0:\n"
                 "    continue"),
                # _operands_invalid folded to the mask conditional.
                ("guard", "core/pipeline.py",
                 "SMTPipeline._operands_invalid",
                 "mask = inst.src_inv_mask\n"
                 "if inst.is_store:\n"
                 "    return bool(mask & 1)\n"
                 "return mask != 0"),
                ("stmt",
                 "if self._operands_invalid(waiter):\n"
                 "    fold_worklist.append(waiter)\n"
                 "else:\n"
                 "    waiter.state = ready_state\n"
                 "    queues[op_queue[waiter.op]]._ready.append(waiter)",
                 "wmask = waiter.src_inv_mask\n"
                 "if (wmask & 1) if waiter.is_store else wmask:\n"
                 "    fold_worklist.append(waiter)\n"
                 "else:\n"
                 "    waiter.state = ready_state\n"
                 "    queues[op_queue[waiter.op]]._ready.append(waiter)"),
                # _recycle_runahead_dest open-coded with the entry check
                # elided (pdest == preg != no_reg guarded just above)
                # and the class split reusing the already-computed
                # ``file`` local.
                ("guard", "core/pipeline.py",
                 "SMTPipeline._recycle_runahead_dest",
                 "if inst.pdest == NO_REG:\n"
                 "    return\n"
                 "if inst.dest_arch < _NINT:\n"
                 "    klass, file = (0, self.int_file)\n"
                 "    arch_index = inst.dest_arch\n"
                 "else:\n"
                 "    klass, file = (1, self.fp_file)\n"
                 "    arch_index = inst.dest_arch - _NINT\n"
                 "preg = inst.pdest\n"
                 "if file.pinned[preg]:\n"
                 "    return\n"
                 "front = thread.rename.front[klass]\n"
                 "if front[arch_index] != preg:\n"
                 "    return\n"
                 "front[arch_index] = thread.rename.arch[klass][arch_index]\n"
                 "if not file._allocated[preg]:\n"
                 "    raise SimulationError(f'{file.name}: double release "
                 "of p{preg}')\n"
                 "file._allocated[preg] = False\n"
                 "file.waiters[preg].clear()\n"
                 "file._free.append(preg)\n"
                 "thread.regs_held[klass] -= 1\n"
                 "thread.arch_inv[inst.dest_arch] = inst.invalid\n"
                 "inst.pdest = NO_REG"),
                ("stmt",
                 "if invalid and thread.mode is ra_mode:\n"
                 "    self._recycle_runahead_dest(thread, inst)",
                 "if invalid and thread.mode is ra_mode:\n"
                 "    dest_arch = inst.dest_arch\n"
                 "    if dest_arch < nint:\n"
                 "        klass = 0\n"
                 "        arch_index = dest_arch\n"
                 "    else:\n"
                 "        klass = 1\n"
                 "        arch_index = dest_arch - nint\n"
                 "    if not file.pinned[preg]:\n"
                 "        front = thread.rename.front[klass]\n"
                 "        if front[arch_index] == preg:\n"
                 "            front[arch_index] = (\n"
                 "                thread.rename.arch[klass][arch_index])\n"
                 "            if not file._allocated[preg]:\n"
                 "                raise SimulationError(\n"
                 "                    f\"{file.name}: double release of "
                 "p{preg}\")\n"
                 "            file._allocated[preg] = False\n"
                 "            file.waiters[preg].clear()\n"
                 "            file._free.append(preg)\n"
                 "            thread.regs_held[klass] -= 1\n"
                 "            thread.arch_inv[dest_arch] = invalid\n"
                 "            inst.pdest = no_reg"),
            ],
        },
        {
            "name": "commit",
            "source": ("core/pipeline.py", "SMTPipeline._commit_stage"),
            "emitter": "_emit_commit",
            "covers": (
                ("core/pipeline.py", "SMTPipeline._commit_stage"),
                ("core/pipeline.py", "SMTPipeline._commit_thread"),
            ),
            "subs": [
                # _commit_thread spliced into the per-thread loop; its
                # returns become continue / commit-and-break / the
                # normal-vs-runahead else split / fall-through.
                ("inline", ("core/pipeline.py",
                            "SMTPipeline._commit_thread"),
                 "budget = self._commit_thread(thread, now, budget)\n"
                 "if budget <= 0:\n"
                 "    break",
                 "__INLINE__\n"
                 "if budget <= 0:\n"
                 "    break",
                 {"returns": ["continue",
                              "stmts:budget -= 1\nbreak",
                              "else-rest",
                              "delete"]}),
                # Per-run hoists (done once in _emit_hoists).
                ("stmt", "rob = self.rob", ""),
                ("stmt", "gstats = self.gstats", ""),
                ("stmt", "int_file = self.int_file", ""),
                ("stmt", "fp_file = self.fp_file", ""),
                ("stmt", "recycle = self._recycle_runahead_dest", ""),
                ("rename", "budget", "commit_budget"),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("rename", "_NORMAL", "normal_mode"),
                ("rename", "_COMPLETED", "completed_state"),
                ("rename", "_RETIRED", "retired_state"),
                ("expr", "self._width", str(key.width)),
                ("expr", "self._rotations[now % self.num_threads]",
                 _rotation_expr(key)),
                ("expr", "self.runahead.exit", "ra_exit"),
                ("expr", "rob._queues", "rob_queues"),
                ("expr", "rob.per_thread", "rob_pt"),
                ("expr", "NO_REG", "no_reg"),
                ("expr", "_NINT", "nint"),
                ("expr", "self._last_commit_cycle",
                 "pipeline._last_commit_cycle"),
                ("expr", "thread.rename.commit_dest", "rename.commit_dest"),
                ("expr", "self._release_preg", "release_preg"),
                ("expr", "self.mem.data_access_packed", "data_access"),
                ("expr", "self._uses_runahead", "True"),
                ("expr", "self.runahead.should_enter", "should_enter"),
                ("expr", "self._enter_runahead", "enter_runahead"),
                # The kernel hoists the rename map next to last_index.
                ("stmt", "last_index = thread.last_index",
                 "last_index = thread.last_index\n"
                 "rename = thread.rename"),
                # Tuple assignments split (the emitter writes one
                # statement per line).
                ("stmt", "klass, file = 0, int_file",
                 "klass = 0\nfile = int_file"),
                ("stmt", "klass, file = 1, fp_file",
                 "klass = 1\nfile = fp_file"),
                # _recycle_runahead_dest open-coded; klass/file reuse
                # the values computed for the old_pdest release, the
                # pinned test is folded into the entry check.
                ("guard", "core/pipeline.py",
                 "SMTPipeline._recycle_runahead_dest",
                 "if inst.pdest == NO_REG:\n"
                 "    return\n"
                 "if inst.dest_arch < _NINT:\n"
                 "    klass, file = (0, self.int_file)\n"
                 "    arch_index = inst.dest_arch\n"
                 "else:\n"
                 "    klass, file = (1, self.fp_file)\n"
                 "    arch_index = inst.dest_arch - _NINT\n"
                 "preg = inst.pdest\n"
                 "if file.pinned[preg]:\n"
                 "    return\n"
                 "front = thread.rename.front[klass]\n"
                 "if front[arch_index] != preg:\n"
                 "    return\n"
                 "front[arch_index] = thread.rename.arch[klass][arch_index]\n"
                 "if not file._allocated[preg]:\n"
                 "    raise SimulationError(f'{file.name}: double release "
                 "of p{preg}')\n"
                 "file._allocated[preg] = False\n"
                 "file.waiters[preg].clear()\n"
                 "file._free.append(preg)\n"
                 "thread.regs_held[klass] -= 1\n"
                 "thread.arch_inv[inst.dest_arch] = inst.invalid\n"
                 "inst.pdest = NO_REG"),
                ("stmt",
                 "if head.pdest != no_reg:\n"
                 "    recycle(thread, head)",
                 "preg = head.pdest\n"
                 "if preg != no_reg and not file.pinned[preg]:\n"
                 "    arch_index = (dest_arch if klass == 0\n"
                 "                  else dest_arch - nint)\n"
                 "    front = thread.rename.front[klass]\n"
                 "    if front[arch_index] == preg:\n"
                 "        front[arch_index] = (\n"
                 "            thread.rename.arch[klass][arch_index])\n"
                 "        if not file._allocated[preg]:\n"
                 "            raise SimulationError(\n"
                 "                f\"{file.name}: double release of "
                 "p{preg}\")\n"
                 "        file._allocated[preg] = False\n"
                 "        file.waiters[preg].clear()\n"
                 "        file._free.append(preg)\n"
                 "        thread.regs_held[klass] -= 1\n"
                 "        thread.arch_inv[dest_arch] = head.invalid\n"
                 "        head.pdest = no_reg"),
            ],
        },
        {
            "name": "issue",
            "source": ("core/pipeline.py", "SMTPipeline._issue_stage"),
            "emitter": "_emit_issue",
            "covers": (
                ("core/pipeline.py", "SMTPipeline._issue_stage"),
                ("core/pipeline.py", "SMTPipeline._issue_load"),
                ("core/pipeline.py", "SMTPipeline._issue_store"),
                ("core/pipeline.py", "SMTPipeline._issue_runahead_load"),
                ("core/issue_queue.py", "IssueQueue.take_ready"),
            ),
            "subs": [
                # _issue_load spliced at its call; the runahead early
                # return turns the rest of the helper into the else
                # branch, the MSHR-full return becomes the loop continue.
                ("inline", ("core/pipeline.py", "SMTPipeline._issue_load"),
                 "if not issue_load(thread, inst, queue, now):\n"
                 "    continue",
                 "__INLINE__",
                 {"returns": ["else-rest", "continue", "delete"]}),
                ("inline", ("core/pipeline.py", "SMTPipeline._issue_store"),
                 "issue_store(thread, inst, now)",
                 "__INLINE__",
                 {"returns": []}),
                # _issue_runahead_load is open-coded with the cache
                # latencies folded and schedule()/gate_fetch_until
                # expanded; the guards pin the python-tier bodies.
                ("guard", "core/thread.py",
                 "ThreadContext.gate_fetch_until",
                 "if cycle > self.fetch_gated_until:\n"
                 "    self.fetch_gated_until = cycle"),
                ("guard", "core/pipeline.py",
                 "SMTPipeline._issue_runahead_load",
                 "l1_latency = self._dcache_latency\n"
                 "detect_latency = self._l2_detect_latency\n"
                 "forwarded = self.runahead.load_forward_validity(thread,"
                 " inst)\n"
                 "if forwarded is not None:\n"
                 "    inst.invalid = not forwarded\n"
                 "    inst.complete_cycle = now + l1_latency\n"
                 "    self.schedule(inst.complete_cycle, _EV_COMPLETE,"
                 " inst)\n"
                 "    return\n"
                 "if not self.runahead.prefetch:\n"
                 "    level = self.mem.peek_data(inst.addr)\n"
                 "    if level == 'l1':\n"
                 "        inst.complete_cycle = now + l1_latency\n"
                 "    elif level == 'l2':\n"
                 "        inst.complete_cycle = now + detect_latency\n"
                 "    else:\n"
                 "        inst.invalid = True\n"
                 "        inst.complete_cycle = now + detect_latency\n"
                 "        thread.no_retrigger.add(inst.pass_no *"
                 " thread.retrigger_stride + inst.trace_index)\n"
                 "    self.schedule(inst.complete_cycle, _EV_COMPLETE,"
                 " inst)\n"
                 "    return\n"
                 "packed = self.mem.data_access_packed(inst.addr, False,"
                 " now, thread.tid, speculative=True)\n"
                 "if packed < 0:\n"
                 "    inst.invalid = True\n"
                 "    inst.complete_cycle = now + l1_latency\n"
                 "elif packed & 2:\n"
                 "    inst.invalid = True\n"
                 "    inst.complete_cycle = min(packed >> 2, now +"
                 " detect_latency)\n"
                 "    if self.runahead.stop_fetch_on_l2_miss:\n"
                 "        thread.gate_fetch_until("
                 "thread.runahead_trigger_ready)\n"
                 "else:\n"
                 "    inst.complete_cycle = packed >> 2\n"
                 "cycle = inst.complete_cycle\n"
                 "events = self._events\n"
                 "bucket = events.get(cycle)\n"
                 "if bucket is None:\n"
                 "    events[cycle] = [(_EV_COMPLETE, inst)]\n"
                 "    heappush(self._event_heap, cycle)\n"
                 "else:\n"
                 "    bucket.append((_EV_COMPLETE, inst))"),
                ("stmt", "self._issue_runahead_load(thread, inst, now)",
                 "forwarded = load_forward(thread, inst)\n"
                 "if forwarded is not None:\n"
                 "    inst.invalid = not forwarded\n"
                 f"    ccycle = now + {key.dcache_latency}\n"
                 "elif not ra_prefetch:\n"
                 "    level = peek_data(inst.addr)\n"
                 "    if level == 'l1':\n"
                 f"        ccycle = now + {key.dcache_latency}\n"
                 "    elif level == 'l2':\n"
                 f"        ccycle = now + {key.l2_detect_latency}\n"
                 "    else:\n"
                 "        inst.invalid = True\n"
                 f"        ccycle = now + {key.l2_detect_latency}\n"
                 "        thread.no_retrigger.add(\n"
                 "            inst.pass_no * thread.retrigger_stride\n"
                 "            + inst.trace_index)\n"
                 "else:\n"
                 "    packed = data_access(inst.addr, False, now,\n"
                 "                         tid, speculative=True)\n"
                 "    if packed < 0:\n"
                 "        inst.invalid = True\n"
                 f"        ccycle = now + {key.dcache_latency}\n"
                 "    elif packed & 2:\n"
                 "        inst.invalid = True\n"
                 f"        ccycle = min(packed >> 2, now + "
                 f"{key.l2_detect_latency})\n"
                 "        if ra_stop_fetch:\n"
                 "            trigger = thread.runahead_trigger_ready\n"
                 "            if trigger > thread.fetch_gated_until:\n"
                 "                thread.fetch_gated_until = trigger\n"
                 "    else:\n"
                 "        ccycle = packed >> 2\n"
                 "inst.complete_cycle = ccycle\n"
                 "bucket = events.get(ccycle)\n"
                 "if bucket is None:\n"
                 "    events[ccycle] = [(0, inst)]\n"
                 "    heappush(heap, ccycle)\n"
                 "else:\n"
                 "    bucket.append((0, inst))"),
                # Per-run hoists (done once in _emit_hoists).
                ("stmt", "fus = self.fus", ""),
                ("stmt", "available = fus._available", ""),
                ("stmt", "issued = fus.issued", ""),
                ("stmt", "threads = self.threads", ""),
                ("stmt", "events = self._events", ""),
                ("stmt", "heap = self._event_heap", ""),
                ("stmt", "gstats = self.gstats", ""),
                ("stmt", "issue_load = self._issue_load", ""),
                ("stmt", "issue_store = self._issue_store", ""),
                ("stmt", "per_thread = queue.per_thread", ""),
                # The FU-kind lookup folds to the queue-kind literal
                # (OP_QUEUE/OP_FU coincide; asserted by kernel_cache).
                ("stmt", "kind = OP_FU_BY_CODE[inst.op]", ""),
                ("rename", "budget", "limit"),
                ("rename", "cycle", "ccycle"),
                ("rename", "kind", "queue_kind"),
                ("rename", "_ISSUED", "issued_state"),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("rename", "OP_LATENCY_BY_CODE", "op_latency"),
                ("expr", "_EV_COMPLETE", "0"),
                ("expr", "_EV_L2_DETECT", "1"),
                ("expr", "self._event_heap", "heap"),
                ("expr", "self.schedule", "schedule"),
                ("expr", "self.mem.data_access_packed", "data_access"),
                ("expr", "self.runahead.on_runahead_store",
                 "on_runahead_store"),
                ("expr", "self.runahead.prefetch", "ra_prefetch"),
                ("expr", "thread.tid", "tid"),
                ("expr", "self._l2_detect_latency",
                 str(key.l2_detect_latency)),
                ("expr", "self._fold_worklist", "fold_worklist"),
                ("expr", "self._drain_folds", "drain_folds"),
                # Loop-level continues inverted into guard nesting.
                ("stmt",
                 "queue = self.queues[queue_kind]\n"
                 "if not queue._ready:\n"
                 "    continue\n"
                 "limit = available[queue_kind]\n"
                 "if limit <= 0:\n"
                 "    continue\n"
                 "__REST__",
                 "ready = queue._ready\n"
                 "if ready:\n"
                 "    limit = available[queue_kind]\n"
                 "    if limit > 0:\n"
                 "        __REST__"),
                # take_ready open-coded (its early returns are subsumed
                # by the guards above / the `if live:` nesting); the
                # guard pins the python-tier body.
                ("guard", "core/issue_queue.py", "IssueQueue.take_ready",
                 "ready = self._ready\n"
                 "if not ready:\n"
                 "    return []\n"
                 "for inst in ready:\n"
                 "    if inst.state != _READY:\n"
                 "        live = [inst for inst in ready if inst.state =="
                 " _READY]\n"
                 "        self._ready = live\n"
                 "        break\n"
                 "else:\n"
                 "    live = ready\n"
                 "if not live:\n"
                 "    return []\n"
                 "if len(live) > limit:\n"
                 "    live.sort(key=_inst_age)\n"
                 "    selected = live[:limit]\n"
                 "    self._ready = live[limit:]\n"
                 "else:\n"
                 "    selected = live\n"
                 "    self._ready = []\n"
                 "if self._replay_blocked:\n"
                 "    for inst in selected:\n"
                 "        if inst.replay:\n"
                 "            inst.replay = False\n"
                 "            self._replay_blocked -= 1\n"
                 "return selected"),
                ("stmt",
                 "for inst in queue.take_ready(limit):\n"
                 "    __BODY__",
                 "for inst in ready:\n"
                 "    if inst.state != ready_state:\n"
                 "        live = [inst for inst in ready\n"
                 "                if inst.state == ready_state]\n"
                 "        queue._ready = live\n"
                 "        break\n"
                 "else:\n"
                 "    live = ready\n"
                 "if live:\n"
                 "    if len(live) > limit:\n"
                 "        live.sort(key=inst_age)\n"
                 "        selected = live[:limit]\n"
                 "        queue._ready = live[limit:]\n"
                 "    else:\n"
                 "        selected = live\n"
                 "        queue._ready = []\n"
                 "    if queue._replay_blocked:\n"
                 "        for inst in selected:\n"
                 "            if inst.replay:\n"
                 "                inst.replay = False\n"
                 "                queue._replay_blocked -= 1\n"
                 "    for inst in selected:\n"
                 "        __BODY__"),
                # The store's schedule() call is open-coded.
                ("stmt",
                 "inst.complete_cycle = now + 1\n"
                 "schedule(inst.complete_cycle, 0, inst)",
                 "ccycle = now + 1\n"
                 "inst.complete_cycle = ccycle\n"
                 "bucket = events.get(ccycle)\n"
                 "if bucket is None:\n"
                 "    events[ccycle] = [(0, inst)]\n"
                 "    heappush(heap, ccycle)\n"
                 "else:\n"
                 "    bucket.append((0, inst))"),
                ("unroll", "queue_kind",
                 [{"queue_kind": str(qk), "queue": f"q{qk}",
                   "per_thread": f"q{qk}_pt"}
                  for qk in (2, 0, 1)]),
            ],
        },
        {
            "name": "dispatch",
            "source": ("core/pipeline.py", "SMTPipeline._dispatch_stage"),
            "emitter": "_emit_dispatch",
            "covers": (
                ("core/pipeline.py", "SMTPipeline._dispatch_stage"),
                ("core/pipeline.py", "SMTPipeline._dispatch"),
                ("core/pipeline.py", "SMTPipeline._uncount"),
                ("core/thread.py", "ThreadContext.note_arch_invalid"),
            ),
            "subs": [
                # _dispatch spliced into the per-stage loop; False
                # returns become stall-and-break, the drop-at-decode
                # True return consumes the entry inline, the tail True
                # falls through to the shared popleft.
                ("inline", ("core/pipeline.py", "SMTPipeline._dispatch"),
                 "if not dispatch(thread, fetch_queue[0], now):\n"
                 "    self.gstats.dispatch_stalls += 1\n"
                 "    break",
                 "__INLINE__",
                 {"assign": {"inst": "fetch_queue[0]"},
                  "returns": [
                      "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                      "stmts:fetch_queue.popleft()\nbudget -= 1\n"
                      "continue",
                      "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                      "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                      "delete"]}),
                ("inline", ("core/pipeline.py", "SMTPipeline._uncount"),
                 "self._uncount(inst)",
                 "__INLINE__",
                 {"returns": []}),
                ("guard", "core/thread.py",
                 "ThreadContext.note_arch_invalid",
                 "self.arch_inv[arch_reg] = invalid"),
                ("stmt", "thread.note_arch_invalid(inst.dest_arch, True)",
                 "arch_inv[inst.dest_arch] = True"),
                # Per-run hoists (done once in _emit_hoists); tid is
                # hoisted once per thread iteration.
                ("stmt", "dispatch = self._dispatch", ""),
                ("stmt", "rob = self.rob", ""),
                ("stmt", "fetch_queue = thread.fetch_queue",
                 "fetch_queue = thread.fetch_queue\n"
                 "tid = thread.tid"),
                ("rename", "budget", "dispatch_budget"),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("rename", "_COMPLETED", "completed_state"),
                ("rename", "_DISPATCHED", "dispatched_state"),
                ("rename", "_READY", "ready_state"),
                ("rename", "IS_FP_BY_CODE", "is_fp_code"),
                ("rename", "OP_QUEUE_BY_CODE", "op_queue"),
                ("expr", "self._width", str(key.width)),
                ("expr", "self._rotations[now % self.num_threads]",
                 _rotation_expr(key)),
                ("expr", "self._ra_fp_inval", "True"),
                ("expr", "_SYNC_CODE", str(pipeline_mod._SYNC_CODE)),
                ("expr", "rob.capacity", str(key.rob_capacity)),
                ("expr", "rob._queues[inst.tid]", "robq"),
                ("expr", "rob.per_thread[inst.tid]", "rob_pt[tid]"),
                ("expr", "self.threads[inst.tid]", "thread"),
                ("expr", "inst.tid", "tid"),
                ("expr", "self.queues", "queues"),
                ("expr", "self.int_file", "int_file"),
                ("expr", "self.fp_file", "fp_file"),
                ("expr", "self.gstats", "gstats"),
                ("expr", "self._fold", "fold"),
                ("expr", "NO_REG", "no_reg"),
                ("expr", "_NINT", "nint"),
                ("expr", "_NEVER", "never"),
                ("expr", "front[0]", "front0"),
                ("expr", "front[1]", "front1"),
                ("expr", "self._fold_worklist", "fold_worklist"),
                ("expr", "self._drain_folds", "drain_folds"),
                ("stmt", "thread.stats.dispatched += 1",
                 "stats.dispatched += 1"),
                ("stmt", "thread.stats.folded += 1",
                 "stats.folded += 1"),
                # The drop-at-decode temp folds into the test.
                ("stmt",
                 "drop_at_decode = thread.mode is ra_mode and"
                 " (True and is_fp_code[op]"
                 f" or op == {pipeline_mod._SYNC_CODE})\n"
                 "if drop_at_decode:\n"
                 "    __BODY__",
                 "if thread.mode is ra_mode and"
                 f" (is_fp_code[op] or op == {pipeline_mod._SYNC_CODE}):\n"
                 "    __BODY__"),
                # Queue-capacity check against the folded caps tuple.
                ("stmt",
                 "queue = queues[op_queue[op]]\n"
                 "if queue.size >= queue.capacity:\n"
                 "    gstats.dispatch_stalls += 1\n"
                 "    break",
                 "qk = op_queue[op]\n"
                 "queue = queues[qk]\n"
                 "if queue.size >= iq_caps[qk]:\n"
                 "    gstats.dispatch_stalls += 1\n"
                 "    break"),
                # dest_file default moves into the else branch.
                ("stmt",
                 "dest_file: Optional[PhysRegFile] = None\n"
                 "if dest_arch != no_reg:\n"
                 "    dest_file = int_file if dest_arch < nint"
                 " else fp_file\n"
                 "    if not dest_file._free:\n"
                 "        gstats.dispatch_stalls += 1\n"
                 "        break",
                 "if dest_arch != no_reg:\n"
                 "    dest_file = int_file if dest_arch < nint"
                 " else fp_file\n"
                 "    if not dest_file._free:\n"
                 "        gstats.dispatch_stalls += 1\n"
                 "        break\n"
                 "else:\n"
                 "    dest_file = None"),
                # The per-call rename hoists move out of the while loop
                # (re-added by the wrapper below).
                ("stmt",
                 "pending = 0\n"
                 "arch_inv = thread.arch_inv\n"
                 "front = thread.rename.front\n"
                 "arch = inst.src1_arch",
                 "pending = 0\n"
                 "arch = inst.src1_arch"),
                # fmap resolves inside the klass branch.
                ("stmt",
                 "if dest_arch < nint:\n"
                 "    klass = 0\n"
                 "    arch_index = dest_arch\n"
                 "else:\n"
                 "    klass = 1\n"
                 "    arch_index = dest_arch - nint\n"
                 "inst.pdest = preg\n"
                 "fmap = front[klass]",
                 "if dest_arch < nint:\n"
                 "    klass = 0\n"
                 "    arch_index = dest_arch\n"
                 "    fmap = front0\n"
                 "else:\n"
                 "    klass = 1\n"
                 "    arch_index = dest_arch - nint\n"
                 "    fmap = front1\n"
                 "inst.pdest = preg"),
                # The front read sinks below the ROB guard (which does
                # not use it) — the kernel stalls before peeking.
                ("stmt",
                 "inst = fetch_queue[0]\n"
                 f"if rob._occupancy >= {key.rob_capacity}:\n"
                 "    gstats.dispatch_stalls += 1\n"
                 "    break",
                 f"if rob._occupancy >= {key.rob_capacity}:\n"
                 "    gstats.dispatch_stalls += 1\n"
                 "    break\n"
                 "inst = fetch_queue[0]"),
                # The per-stage while gains the guarded hoist wrapper.
                ("stmt",
                 "while dispatch_budget > 0 and fetch_queue:\n"
                 "    __BODY__\n"
                 "if dispatch_budget <= 0:\n"
                 "    break",
                 "if dispatch_budget > 0 and fetch_queue:\n"
                 "    robq = rob_queues[tid]\n"
                 "    stats = thread.stats\n"
                 "    arch_inv = thread.arch_inv\n"
                 "    front = thread.rename.front\n"
                 "    front0 = front[0]\n"
                 "    front1 = front[1]\n"
                 "    while dispatch_budget > 0 and fetch_queue:\n"
                 "        __BODY__\n"
                 "if dispatch_budget <= 0:\n"
                 "    break"),
            ],
        },
        {
            "name": "fetch",
            "source": ("core/pipeline.py", "SMTPipeline._fetch_stage"),
            "emitter": "_emit_fetch",
            "covers": (
                ("core/pipeline.py", "SMTPipeline._fetch_stage"),
                ("core/pipeline.py", "SMTPipeline._fetch_thread"),
                ("core/thread.py", "ThreadContext.block_fetch_until"),
            ),
            "subs": [
                # _fetch_thread spliced per thread; the buffer-full
                # return becomes the loop continue, the tail return
                # merges into the `if count:` epilogue below.
                ("inline", ("core/pipeline.py",
                            "SMTPipeline._fetch_thread"),
                 "taken = self._fetch_thread(thread, now,"
                 " width - fetched_total)\n"
                 "if taken > 0:\n"
                 "    fetched_total += taken\n"
                 "    threads_used += 1",
                 "__INLINE__",
                 {"assign": {"limit": "width - fetched_total"},
                  "returns": ["continue", "delete"]}),
                ("guard", "core/thread.py",
                 "ThreadContext.block_fetch_until",
                 "if cycle > self.fetch_blocked_until:\n"
                 "    self.fetch_blocked_until = cycle"),
                ("stmt", "thread.block_fetch_until(complete)",
                 "if complete > thread.fetch_blocked_until:\n"
                 "    thread.fetch_blocked_until = complete"),
                ("stmt", "thread.block_fetch_until(now + 2)",
                 "blocked = now + 2\n"
                 "if blocked > thread.fetch_blocked_until:\n"
                 "    thread.fetch_blocked_until = blocked"),
                # Per-run hoists (done once in _emit_hoists) and the
                # width/fetch-thread folds.
                ("stmt", "width = self._width", ""),
                ("stmt", "fetch_threads = self._fetch_threads", ""),
                ("stmt", "threads = self.threads", ""),
                ("stmt", "tid = thread.tid", ""),
                ("stmt", "ifetch_packed = self.mem.ifetch_packed", ""),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("expr", "width", str(key.width)),
                ("expr", "fetch_threads", str(key.fetch_threads)),
                ("expr", "self.policy.fetch_order", "fetch_order"),
                ("expr", "self.gstats", "gstats"),
                ("expr", "self._fetch_buffer_size",
                 str(key.fetch_buffer)),
                ("expr", "self._icache_latency", str(key.icache_latency)),
                ("expr", "self._gseq", "pipeline._gseq"),
                ("expr", "self.btb.lookup_and_insert", "btb_lookup"),
                ("expr", "self.predictor.predict", "predictor_predict"),
                # The fetch budget resolves after the buffer check (the
                # kernel bails before computing it).
                ("stmt",
                 f"limit = {key.width} - fetched_total\n"
                 "fetch_queue = thread.fetch_queue\n"
                 f"buffer_room = {key.fetch_buffer} - len(fetch_queue)\n"
                 "if buffer_room <= 0:\n"
                 "    continue",
                 "fetch_queue = thread.fetch_queue\n"
                 f"buffer_room = {key.fetch_buffer} - len(fetch_queue)\n"
                 "if buffer_room <= 0:\n"
                 "    continue\n"
                 f"limit = {key.width} - fetched_total"),
                # taken == count: the caller's accounting merges into
                # the fetch-block epilogue.
                ("stmt",
                 "if count:\n"
                 "    pipeline._gseq = gseq\n"
                 "    thread.seq = seq\n"
                 "    thread.icount += count\n"
                 "    stats.fetched += count",
                 "if count:\n"
                 "    pipeline._gseq = gseq\n"
                 "    thread.seq = seq\n"
                 "    thread.icount += count\n"
                 "    stats.fetched += count\n"
                 "    fetched_total += count\n"
                 "    threads_used += 1"),
            ],
        },
        {
            "name": "sample",
            "source": ("core/pipeline.py", "SMTPipeline._sample_stats"),
            "emitter": "_emit_sample",
            "covers": (("core/pipeline.py", "SMTPipeline._sample_stats"),),
            "subs": [
                # The kernel reads the hoisted per-thread stats slots
                # directly instead of re-binding them per cycle.
                ("stmt", "stats = thread.stats", ""),
                ("expr", "thread.regs_held", "thread_held"),
                ("rename", "_RUNAHEAD", "ra_mode"),
                ("expr", "self.gstats", "gstats"),
                ("unroll", "thread", [
                    {"thread": f"t{i}", "thread_held": f"t{i}_held",
                     "stats": f"t{i}_stats"}
                    for i in range(key.num_threads)
                ]),
            ],
        },
    )


FRAGMENTS = _tiersync_fragments(TIERSYNC_KEY)
