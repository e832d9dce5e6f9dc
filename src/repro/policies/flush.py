"""FLUSH long-latency handler (Tullsen & Brown, MICRO-34 [17]).

On detecting a pending L2 miss, squash every instruction of the thread
younger than the missing load, releasing all of its resources to the other
threads, and stall fetch until the miss resolves.  The squashed
instructions are re-fetched and re-executed afterwards — the double
execution the paper's energy comparison charges FLUSH for (§5.3).
"""

from __future__ import annotations

from .icount import ICountPolicy


class FlushPolicy(ICountPolicy):
    """ICOUNT + flush-and-stall on L2 miss."""

    name = "flush"

    def on_l2_miss_detected(self, thread, inst, now: int) -> None:
        if inst.complete_cycle <= now:
            return
        pipeline = self.pipeline
        pipeline.squash_thread_younger(thread, inst.seq)
        # Resume fetch just past the missing load once it resolves.
        next_index = inst.trace_index + 1
        next_pass = inst.pass_no
        if next_index >= len(thread.trace):
            next_index = 0
            next_pass += 1
        thread.rewind_to(next_index, next_pass)
        thread.gate_fetch_until(inst.complete_cycle)
        thread.block_fetch_until(
            inst.complete_cycle + pipeline.config.redirect_penalty)
