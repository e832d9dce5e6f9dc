"""Learning-based resource distribution via hill climbing (Choi & Yeung,
ISCA-33 [3]) — the throughput-guided "Hill-Thru" variant the paper
evaluates (§5.2; the weighted-speedup and harmonic-mean variants need
single-thread IPCs as an external input, which the paper dismisses as
impractical, so we follow their choice).

Execution proceeds in fixed epochs.  Starting from an equal partition of
the machine, the learner runs one *trial epoch* per thread, each trial
shifting ``hill_delta`` of the allocation toward that thread; after the
sweep it permanently moves the base partition in the direction whose trial
epoch achieved the best throughput, then sweeps again — a stochastic
gradient ascent on the performance function.

Shares are enforced by fetch-gating any thread whose share of the reorder
buffer or of the rename registers exceeds its current allocation.
"""

from __future__ import annotations

from typing import List

from ..isa import RegClass
from .icount import ICountPolicy


class HillClimbingPolicy(ICountPolicy):
    """Epoch-based hill climbing on throughput with share enforcement."""

    name = "hill"

    def on_attach(self) -> None:
        num = len(self.threads)
        self._epoch = self.config.hill_epoch_cycles
        self._delta = self.config.hill_delta
        self._min_share = self.config.hill_min_share
        self.shares: List[float] = [1.0 / num] * num
        self._base: List[float] = list(self.shares)
        self._trial = -1                # -1: measuring the base partition
        self._trial_scores: List[float] = [0.0] * num
        self._epoch_start_committed = 0
        self._base_score = 0.0

    # --- learning ---------------------------------------------------------------

    def on_cycle(self, now: int) -> None:
        if now == 0 or now % self._epoch:
            self._enforce(now)
            return
        committed = self.pipeline.gstats.committed
        score = committed - self._epoch_start_committed
        self._epoch_start_committed = committed
        self._finish_epoch(score)
        self._enforce(now)

    def skip_horizon(self, now: int) -> int:
        # Learning happens only on epoch boundaries.  The per-cycle
        # _enforce merely re-gates threads against occupancy counters
        # that are frozen while the machine is idle, and on_cycle runs
        # again at the wake cycle before any fetch — so skipping the
        # intermediate calls is unobservable in the simulation outcome.
        remainder = now % self._epoch
        return now if remainder == 0 else now + (self._epoch - remainder)

    def _finish_epoch(self, score: float) -> None:
        num = len(self.threads)
        if self._trial < 0:
            self._base_score = score
        else:
            self._trial_scores[self._trial] = score
        self._trial += 1
        if self._trial < num:
            self.shares = self._shifted(self._base, self._trial)
            return
        # Sweep complete: climb toward the best direction, if it beat the
        # base partition.
        best = max(range(num), key=lambda tid: self._trial_scores[tid])
        if self._trial_scores[best] > self._base_score:
            self._base = self._shifted(self._base, best)
        self.shares = list(self._base)
        self._trial = -1

    def _shifted(self, base: List[float], favored: int) -> List[float]:
        """Move ``hill_delta`` of allocation toward one thread."""
        num = len(base)
        shares = list(base)
        gain = 0.0
        for tid in range(num):
            if tid == favored:
                continue
            available = max(0.0, shares[tid] - self._min_share)
            take = min(available, self._delta / max(1, num - 1))
            shares[tid] -= take
            gain += take
        shares[favored] += gain
        return shares

    # --- enforcement ---------------------------------------------------------------

    def _enforce(self, now: int) -> None:
        pipeline = self.pipeline
        num = len(self.threads)
        rob_capacity = pipeline.rob.capacity
        int_pool = max(1, self.config.int_regs - 32 * num)
        for tid, thread in enumerate(self.threads):
            share = self.shares[tid]
            over_rob = (len(pipeline.rob._queues[tid])
                        > max(1.0, share * rob_capacity))
            over_regs = (thread.regs_held[RegClass.INT] - 32
                         > max(1.0, share * int_pool))
            if over_rob or over_regs:
                thread.gate_fetch_until(now + 1)
