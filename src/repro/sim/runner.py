"""Workload execution on top of the simulation engine.

The paper's simulation campaign runs every Table 2 workload under every
policy; many figures then slice the same runs differently.
:func:`run_workload` simulates one (workload, policy, config) combination
under a :class:`RunSpec`, delegating to the process-wide default
:class:`~repro.sim.engine.SimEngine`, which memoizes outcomes (and, when
configured with a :class:`~repro.sim.store.DiskStore`, persists them
across invocations), so each combination is simulated once no matter how
many figures consume it.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional

from ..core.processor import SimResult
from ..trace.workloads import Workload

#: Environment variable selecting longer, higher-fidelity runs.
FULL_ENV_VAR = "REPRO_FULL"


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Measurement parameters (trace scale and FAME settings).

    The defaults are sized for Python-speed experiment sweeps; set the
    ``REPRO_FULL`` environment variable (see :func:`default_spec`) or pass
    a custom spec for longer runs.
    """

    trace_len: int = 3000
    seed: int = 1
    min_passes: int = 1
    max_cycles: int = 2_000_000

    def to_dict(self) -> Dict[str, int]:
        """Canonical JSON-ready form."""
        return {"trace_len": self.trace_len, "seed": self.seed,
                "min_passes": self.min_passes, "max_cycles": self.max_cycles}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "RunSpec":
        return cls(**data)


def default_spec() -> RunSpec:
    """The default run spec, scaled up when ``REPRO_FULL`` is set."""
    if os.environ.get(FULL_ENV_VAR):
        return RunSpec(trace_len=12000, max_cycles=8_000_000)
    return RunSpec()


@dataclasses.dataclass
class WorkloadRun:
    """One memoized simulation outcome."""

    workload: Workload
    policy: str
    spec: RunSpec
    result: SimResult

    @property
    def ipcs(self) -> List[float]:
        return self.result.ipcs

    @property
    def throughput(self) -> float:
        return self.result.throughput

    @property
    def executed(self) -> int:
        return self.result.total_executed

    @property
    def cpi(self) -> float:
        return self.result.avg_cpi

    def ed2(self) -> float:
        return self.result.ed2()


def clear_run_cache() -> None:
    """Forget the default engine's in-process results (tests use this).

    Clears both the run memo and the store's in-process entries via
    :meth:`~repro.sim.engine.SimEngine.clear`; entries a ``DiskStore``
    already persisted remain on disk and are re-read on demand.
    """
    from .engine import get_engine
    get_engine().clear()


def run_workload(workload: Workload, policy: str,
                 config=None, spec: Optional[RunSpec] = None) -> WorkloadRun:
    """Simulate one workload under one policy (memoized on the engine)."""
    from .engine import get_engine
    return get_engine().run_workload(workload, policy, config, spec)
