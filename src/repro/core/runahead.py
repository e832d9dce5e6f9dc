"""The Runahead Threads mechanism (paper §3).

The controller implements the mode machinery:

* **Entry** — when a load that has been detected as an L2 miss reaches the
  head of its thread's reorder-buffer window, the thread checkpoints its
  architectural register map (by pinning it — the architectural map is
  frozen during runahead, so no copy is needed), pseudo-retires the load
  with an INV destination, and switches to runahead mode.
* **During runahead** — handled in the pipeline: instructions dispatch,
  execute and pseudo-retire as usual, but never update architectural state;
  invalid instructions fold; further L2-missing loads become prefetches; FP
  compute ops are dropped at decode (§3.3).
* **Exit** — when the triggering miss resolves, all in-flight speculative
  work is squashed, the front-end map is restored from the architectural
  map, and fetch rewinds to the triggering load, which re-executes against
  a now-warm cache.

The optional runahead cache (§3.3) forwards store validity to subsequent
runahead loads; the paper measured it as insignificant and left it out of
RaT, and it defaults off here too (`SMTConfig.rat_runahead_cache`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, TYPE_CHECKING

from .dyninst import DynInst
from .thread import ThreadContext, ThreadMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline import SMTPipeline


class RunaheadCache:
    """Per-thread store->load validity forwarding during runahead.

    Tracks, per 8-byte word, whether the last runahead store to it carried
    a valid value.  Bounded capacity with FIFO eviction; cleared at exit.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses")

    WORD = 8

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = max(1, capacity_bytes // self.WORD)
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def record_store(self, addr: int, valid: bool) -> None:
        word = addr // self.WORD
        if word in self._entries:
            self._entries.move_to_end(word)
        self._entries[word] = valid
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def probe_load(self, addr: int) -> Optional[bool]:
        """Validity of forwarded data, or None if no store matched."""
        word = addr // self.WORD
        if word in self._entries:
            self.hits += 1
            return self._entries[word]
        self.misses += 1
        return None

    def clear(self) -> None:
        self._entries.clear()


class RunaheadController:
    """Coordinates runahead entry/exit against the pipeline's structures."""

    def __init__(self, pipeline: "SMTPipeline") -> None:
        self._pipeline = pipeline
        config = pipeline.config
        self.fp_invalidation = config.rat_fp_invalidation
        self.prefetch = config.rat_prefetch
        self.stop_fetch_on_l2_miss = config.rat_stop_fetch_in_runahead
        self.caches: list = []
        if config.rat_runahead_cache:
            self.caches = [RunaheadCache(config.rat_runahead_cache_bytes)
                           for _ in pipeline.threads]

    # --- entry -------------------------------------------------------------

    def should_enter(self, thread: ThreadContext, head: DynInst,
                     now: int) -> bool:
        """Entry test for the instruction at the thread's window head."""
        if thread.mode != ThreadMode.NORMAL:
            return False
        if not head.is_load or not head.l2_miss:
            return False
        if head.complete_cycle >= 0 and head.complete_cycle <= now:
            return False  # data already arrived; commit normally
        if (head.pass_no * thread.retrigger_stride + head.trace_index
                in thread.no_retrigger):
            # One episode per dynamic load (forward-progress guarantee),
            # and the Figure 4 prefetch ablation: a load whose prefetch
            # was suppressed must not re-trigger runahead after recovery.
            return False
        return True

    def enter(self, thread: ThreadContext, trigger: DynInst,
              now: int) -> None:
        """Switch ``thread`` into runahead mode on ``trigger``."""
        # One episode per dynamic load: if the trigger misses again after
        # recovery (e.g. its line was evicted by the episode's own
        # prefetches), the thread waits for it like a normal miss instead
        # of re-entering — guaranteeing forward progress (no livelock).
        thread.no_retrigger.add(
            trigger.pass_no * thread.retrigger_stride + trigger.trace_index)
        thread.rename.pin_architectural()
        thread.mode = ThreadMode.RUNAHEAD
        thread.runahead_trigger_ready = trigger.complete_cycle
        thread.runahead_trigger_index = trigger.trace_index
        thread.runahead_trigger_pass = trigger.pass_no
        thread.stats.runahead_episodes += 1
        if self.stop_fetch_on_l2_miss:
            # Figure 4 "resource availability" ablation: the runahead
            # thread executes only already-fetched instructions.
            thread.gate_fetch_until(trigger.complete_cycle)
        if self.caches:
            self.caches[thread.tid].clear()

    # --- exit --------------------------------------------------------------------

    def exit(self, thread: ThreadContext, now: int) -> None:
        """Roll the thread back to its checkpoint and resume normal mode."""
        pipeline = self._pipeline
        pipeline.squash_thread_all(thread)
        int_freed, fp_freed = thread.rename.restore_front_to_arch()
        thread.regs_held[0] -= int_freed
        thread.regs_held[1] -= fp_freed
        thread.rename.unpin_architectural()
        thread.clear_arch_invalid()
        thread.mode = ThreadMode.NORMAL
        thread.rewind_to(thread.runahead_trigger_index,
                         thread.runahead_trigger_pass)
        thread.block_fetch_until(now + pipeline.config.redirect_penalty)
        thread.runahead_trigger_ready = -1
        thread.runahead_trigger_index = -1
        thread.runahead_trigger_pass = -1
        if self.caches:
            self.caches[thread.tid].clear()

    # --- runahead store/load forwarding ----------------------------------------------

    def on_runahead_store(self, thread: ThreadContext, inst: DynInst,
                          data_valid: bool) -> None:
        if self.caches:
            self.caches[thread.tid].record_store(inst.addr, data_valid)

    def load_forward_validity(self, thread: ThreadContext,
                              inst: DynInst) -> Optional[bool]:
        """Validity of store-forwarded data for a runahead load, if any."""
        if not self.caches:
            return None
        return self.caches[thread.tid].probe_load(inst.addr)
