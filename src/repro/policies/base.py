"""Policy interface.

A policy owns two decisions each cycle:

* **Fetch priority** — :meth:`FetchPolicy.fetch_order` returns thread ids
  in descending priority; the pipeline fetches from the first
  ``fetch_threads`` fetchable ones (ICOUNT.2.8 style).
* **Gating** — policies react to events (:meth:`on_l2_miss_detected`) or
  periodic bookkeeping (:meth:`on_cycle`) by gating threads through
  :meth:`~repro.core.thread.ThreadContext.gate_fetch_until`, or — for
  FLUSH — by asking the pipeline to squash.

``uses_runahead`` turns on the runahead entry check at the commit stage.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..config import SMTConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.dyninst import DynInst
    from ..core.pipeline import SMTPipeline
    from ..core.thread import ThreadContext


class FetchPolicy:
    """Base policy: fixed thread order, no gating, no runahead."""

    name = "base"
    uses_runahead = False

    def __init__(self, config: SMTConfig) -> None:
        self.config = config
        self.pipeline: "SMTPipeline" = None  # type: ignore[assignment]

    def attach(self, pipeline: "SMTPipeline") -> None:
        """Bind to the pipeline once its structures exist."""
        self.pipeline = pipeline
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses needing per-thread state."""

    @property
    def threads(self) -> List["ThreadContext"]:
        return self.pipeline.threads

    # --- decisions ---------------------------------------------------------

    def fetch_order(self, now: int) -> List[int]:
        """Thread ids in descending fetch priority."""
        return list(range(len(self.threads)))

    # --- event hooks ------------------------------------------------------------

    def on_l2_miss_detected(self, thread: "ThreadContext",
                            inst: "DynInst", now: int) -> None:
        """A demand load of ``thread`` was found to miss in L2."""

    def on_cycle(self, now: int) -> None:
        """Called once per cycle before the commit stage."""

    def skip_horizon(self, now: int) -> Optional[int]:
        """Earliest future cycle at which :meth:`on_cycle` must run.

        The event-driven fast path (:meth:`SMTPipeline.advance
        <repro.core.pipeline.SMTPipeline.advance>`) consults this before
        jumping over provably idle cycles: ``on_cycle`` is *not* invoked
        for cycles in ``[now, horizon)``.  ``None`` means the policy
        needs no future wakeup; returning ``now`` forbids skipping this
        cycle.

        This is the policy's term in the pipeline's *per-structure
        horizon contract*: every structure that can wake an otherwise
        quiescent machine must clamp the skip target with its own next
        wakeup cycle — issue queues via
        :meth:`~repro.core.issue_queue.IssueQueue.next_ready_cycle`, the
        MSHR file via
        :meth:`~repro.mem.mshr.MSHRFile.next_release_cycle`, the FU
        pools via :meth:`~repro.core.fu.FUPool.next_release_cycle`, the
        event table and the per-thread fetch/runahead gates inside
        ``SMTPipeline._skip_target`` — and the policy, here.  A horizon
        may be conservative (earlier than the true wakeup costs only
        speed) but never late: skipping past a cycle where the structure
        would have acted diverges the simulation.

        A policy that overrides :meth:`on_cycle` with per-cycle
        behaviour MUST override this accordingly — otherwise the
        pipeline disables cycle skipping entirely for that policy, which
        is always safe but slow.  :meth:`fetch_order` must remain
        side-effect-free: it is not called for skipped idle cycles.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
