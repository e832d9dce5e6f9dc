"""Simulation statistics.

``executed`` counts every instruction issued to a functional unit or the
memory system — committed, pseudo-retired and squashed-after-issue alike —
because the paper's energy proxy is "number of executed instructions"
(§5.3).  Folded instructions (INV operands in runahead, FP and SYNC ops
dropped at decode) never execute, so they count in ``folded`` only.
Every issue executes, so ``issued`` is ``executed``: it is counted once
and serialized under both names.  ``committed`` counts only
architecturally-retired work, the numerator of IPC.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

#: Stats slots that participate in result digests: every
#: :class:`ThreadStats` field is serialized into
#: :class:`~repro.core.processor.SimResult` via ``to_dict`` and is
#: therefore covered by the golden-digest regime — adding a field here
#: requires a CODE_VERSION_SALT bump and re-pinned goldens.  The
#: ``digest-safety`` lint rule (see :mod:`repro.analysis.digests`)
#: fails any stats field missing from this tuple and from
#: :data:`DIGEST_SAFE_DIAGNOSTICS`, so new counters must pick a side.
THREAD_DIGEST_FIELDS = (
    "fetched", "dispatched", "folded", "executed",
    "committed", "pseudo_retired", "squashed", "branches",
    "mispredicts", "runahead_episodes", "runahead_cycles", "passes",
    "normal_reg_samples", "normal_regs_held",
    "runahead_reg_samples", "runahead_regs_held",
)

#: Stats slots declared digest-exempt: :class:`GlobalStats` is a
#: diagnostics surface, never serialized into SimResult, so these may
#: grow without touching salts or goldens.
DIGEST_SAFE_DIAGNOSTICS = ("cycles", "committed", "macro_insts")


@dataclasses.dataclass(slots=True)
class ThreadStats:
    """Per-thread counters (slotted: these fields are incremented on
    per-instruction hot paths)."""

    fetched: int = 0
    dispatched: int = 0
    folded: int = 0           # invalid instructions never executed (runahead)
    executed: int = 0         # issued to a unit; folded ones never are
    committed: int = 0        # architectural retirement
    pseudo_retired: int = 0   # runahead-mode retirement
    squashed: int = 0
    branches: int = 0
    mispredicts: int = 0
    runahead_episodes: int = 0
    runahead_cycles: int = 0
    passes: int = 0           # complete trace re-executions (FAME)

    # Register-file occupancy sampling for Figure 5, split by mode.
    normal_reg_samples: int = 0
    normal_regs_held: int = 0
    runahead_reg_samples: int = 0
    runahead_regs_held: int = 0

    @property
    def issued(self) -> int:
        return self.executed

    def to_dict(self) -> Dict[str, int]:
        """Canonical JSON-ready form (all fields are plain ints)."""
        data = dataclasses.asdict(self)
        data["issued"] = self.executed
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ThreadStats":
        data = dict(data)
        data.pop("issued", None)
        return cls(**data)

    def ipc(self, cycles: int) -> float:
        return self.committed / cycles if cycles > 0 else 0.0

    def avg_regs_normal(self) -> float:
        if self.normal_reg_samples == 0:
            return 0.0
        return self.normal_regs_held / self.normal_reg_samples

    def avg_regs_runahead(self) -> float:
        if self.runahead_reg_samples == 0:
            return 0.0
        return self.runahead_regs_held / self.runahead_reg_samples


@dataclasses.dataclass(slots=True)
class GlobalStats:
    """Whole-processor counters (slotted, as ThreadStats).

    Unlike :class:`ThreadStats`, these are *diagnostics*: they are not
    part of :class:`~repro.core.processor.SimResult` and therefore not
    covered by the golden-digest regime — new counters may be added
    without a cache salt bump.
    """

    cycles: int = 0
    committed: int = 0

    # Always 0: the fused dispatch fast path it counted is gone, but
    # the benchmark harness still reads it for its core.macro_* metrics.
    # The field is removed together with those metrics.
    macro_insts: int = 0
