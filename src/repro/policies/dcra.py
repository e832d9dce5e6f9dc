"""DCRA: Dynamically Controlled Resource Allocation (Cazorla et al.,
MICRO-37 [1]).

DCRA monitors per-thread usage of the critical shared resources (physical
registers and issue-queue entries) and continuously computes, for each
thread, how much of each resource it is *entitled* to:

* Threads are classified **slow** (a pending L2 miss — memory-intensive,
  given a larger share so they can exploit distant parallelism) or
  **fast**; slow threads weigh ``dcra_slow_weight`` against 1.
* Threads that do not use a resource at all (e.g. integer programs and the
  FP register file) are **inactive** for it and donate their share.
* A thread whose usage exceeds its entitlement for any resource is fetch-
  gated until the next sampling interval.

This is a faithful-in-spirit approximation; the original paper's exact
sharing formula differs in constants but behaves the same way (protect
memory-bound threads' share without letting them monopolize).  See
DESIGN.md §5.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa import IssueQueueKind, RegClass
from .icount import ICountPolicy


class DCRAPolicy(ICountPolicy):
    """ICOUNT priority + DCRA entitlement-based fetch gating."""

    name = "dcra"

    def on_attach(self) -> None:
        self._interval = self.config.dcra_sample_interval
        self._slow_weight = self.config.dcra_slow_weight
        self._fp_active = [True] * len(self.threads)

    def on_cycle(self, now: int) -> None:
        if now == 0 or now % self._interval:
            return
        self._refresh_fp_activity()
        for thread in self.threads:
            if self._over_entitlement(thread):
                thread.gate_fetch_until(now + self._interval)

    def skip_horizon(self, now: int) -> int:
        # Entitlement is re-evaluated only on sampling-interval
        # boundaries, so idle cycles between boundaries may be skipped.
        remainder = now % self._interval
        return now if remainder == 0 else now + (self._interval - remainder)

    # --- classification -----------------------------------------------------

    def _is_slow(self, thread) -> bool:
        return thread.pending_l2_misses > 0 or thread.in_runahead

    def _refresh_fp_activity(self) -> None:
        """A thread is FP-active if it holds FP queue entries or rename
        registers; inactive threads donate their FP share."""
        fp_queue = self.pipeline.queues[IssueQueueKind.FP]
        for tid, thread in enumerate(self.threads):
            self._fp_active[tid] = bool(
                fp_queue.per_thread[tid]
                or thread.regs_held[RegClass.FP] > 32)

    # --- entitlement ---------------------------------------------------------

    def _shares(self, participants: List[int]) -> Dict[int, float]:
        """Entitlement fraction for each participating thread."""
        weights = {tid: (self._slow_weight
                         if self._is_slow(self.threads[tid]) else 1.0)
                   for tid in participants}
        total = sum(weights.values()) or 1.0
        return {tid: weight / total for tid, weight in weights.items()}

    def _over_entitlement(self, thread) -> bool:
        tid = thread.tid
        num = len(self.threads)
        shares_all = self._shares(list(range(num)))
        fp_participants = [t for t in range(num) if self._fp_active[t]]
        fp_shares = self._shares(fp_participants)

        int_rename_pool = self.config.int_regs - 32 * num
        if int_rename_pool > 0:
            usage = thread.regs_held[RegClass.INT] - 32
            if usage > max(1.0, shares_all[tid] * int_rename_pool):
                return True

        fp_rename_pool = self.config.fp_regs - 32 * num
        if fp_rename_pool > 0 and tid in fp_shares:
            usage = thread.regs_held[RegClass.FP] - 32
            if usage > max(1.0, fp_shares[tid] * fp_rename_pool):
                return True

        for kind in (IssueQueueKind.INT, IssueQueueKind.FP,
                     IssueQueueKind.LS):
            queue = self.pipeline.queues[kind]
            if kind == IssueQueueKind.FP:
                if tid not in fp_shares:
                    continue
                share = fp_shares[tid]
            else:
                share = shares_all[tid]
            if queue.per_thread[tid] > max(1.0, share * queue.capacity):
                return True
        return False
