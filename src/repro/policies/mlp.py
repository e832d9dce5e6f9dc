"""MLP-aware fetch policy (Eyerman & Eeckhout, HPCA-13 [15]).

Included as an optional comparator (the paper discusses it as the closest
related work, §2): on a long-latency load, the thread is allowed to fetch
only as many further instructions as an MLP predictor expects are needed
to expose the miss's memory-level parallelism, and is then stalled until
the miss resolves.  Unlike RaT the speculation distance is bounded by the
predictor, so distant MLP is never exploited.

The predictor here is a simplified per-PC adaptive table: the allowance
grows multiplicatively while extra L2 misses keep being found inside the
window and decays when they are not.
"""

from __future__ import annotations

from typing import Dict, Optional

from .icount import ICountPolicy


class MLPAwarePolicy(ICountPolicy):
    """ICOUNT + bounded run-on after a long-latency load, then stall."""

    name = "mlp"

    def on_attach(self) -> None:
        self._max_extra = self.config.mlp_max_extra
        self._entries = self.config.mlp_predictor_entries
        self._predictions: Dict[int, float] = {}
        num = len(self.threads)
        self._window_end_fetch = [-1] * num   # fetched-count limit
        self._window_resolve = [0] * num      # cycle the trigger resolves
        self._window_pc = [0] * num
        self._window_extra_misses = [0] * num
        #: Minimum pending resolve cycle over all open windows (0 = no
        #: window open), maintained incrementally at window open/close so
        #: :meth:`skip_horizon` is O(1) instead of a per-quiescence-check
        #: scan of ``_window_resolve``.
        self._min_resolve = 0

    def _refresh_min_resolve(self) -> None:
        """Recompute the cached minimum (window closed or replaced)."""
        best = 0
        for resolve in self._window_resolve:
            if resolve > 0 and (best == 0 or resolve < best):
                best = resolve
        self._min_resolve = best

    def _predict(self, pc: int) -> int:
        return int(self._predictions.get(pc % self._entries,
                                         self._max_extra / 4))

    def _train(self, pc: int, extra_misses: int) -> None:
        key = pc % self._entries
        current = self._predictions.get(key, self._max_extra / 4)
        if extra_misses > 0:
            current = min(self._max_extra, current * 1.5 + 1)
        else:
            current = max(4.0, current * 0.75)
        self._predictions[key] = current

    def on_l2_miss_detected(self, thread, inst, now: int) -> None:
        tid = thread.tid
        if now < self._window_resolve[tid]:
            # Additional MLP found inside an open window.
            self._window_extra_misses[tid] += 1
            return
        allowance = self._predict(inst.pc)
        self._window_end_fetch[tid] = thread.stats.fetched + allowance
        previous = self._window_resolve[tid]
        resolve = inst.complete_cycle
        self._window_resolve[tid] = resolve
        self._window_pc[tid] = inst.pc
        self._window_extra_misses[tid] = 0
        if previous > 0:
            # Replaced an expired-but-unclosed window that may have been
            # the cached minimum.
            self._refresh_min_resolve()
        elif self._min_resolve == 0 or resolve < self._min_resolve:
            self._min_resolve = resolve

    def on_cycle(self, now: int) -> None:
        closed = False
        for tid, thread in enumerate(self.threads):
            resolve = self._window_resolve[tid]
            if resolve <= 0:
                continue
            if now >= resolve:
                # Window closed: train the predictor and release the gate.
                self._train(self._window_pc[tid],
                            self._window_extra_misses[tid])
                self._window_resolve[tid] = 0
                self._window_end_fetch[tid] = -1
                thread.ungate_fetch()
                closed = True
            elif (self._window_end_fetch[tid] >= 0
                  and thread.stats.fetched >= self._window_end_fetch[tid]):
                thread.gate_fetch_until(resolve)
        if closed:
            self._refresh_min_resolve()

    def skip_horizon(self, now: int) -> Optional[int]:
        # Window close (train + ungate) must run exactly at its resolve
        # cycle.  The run-on gate test depends only on the fetched
        # counter, which is frozen while the machine is idle, and is
        # re-applied at the wake cycle before any fetch.  The cached
        # minimum covers expired-but-unclosed windows too (their close
        # still has to run), so this is exactly the scan it replaces.
        resolve = self._min_resolve
        return resolve if resolve > 0 else None
