"""Top-level simulator facade.

:class:`SMTProcessor` wires traces, a configuration and a policy into an
:class:`~repro.core.pipeline.SMTPipeline` and runs it under the FAME
measurement discipline (threads loop their traces; measurement ends when
every thread has completed the requested number of full passes), producing
a :class:`SimResult`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..config import SMTConfig
from ..errors import SimulationError
from ..isa import IS_MEM_BY_CODE, OpClass
from ..trace.trace import Trace
from .pipeline import SMTPipeline
from .stats import ThreadStats

_BRANCH_CODE = int(OpClass.BRANCH)


@dataclasses.dataclass
class SimResult:
    """Outcome of one simulation run."""

    benchmarks: List[str]
    policy: str
    cycles: int
    thread_stats: List[ThreadStats]
    truncated: bool = False
    l2_misses: List[int] = dataclasses.field(default_factory=list)

    @property
    def num_threads(self) -> int:
        return len(self.benchmarks)

    @property
    def ipcs(self) -> List[float]:
        """Per-thread IPC over the whole measured interval."""
        return [stats.ipc(self.cycles) for stats in self.thread_stats]

    @property
    def throughput(self) -> float:
        """Equation (1): average of per-thread IPCs."""
        ipcs = self.ipcs
        return sum(ipcs) / len(ipcs) if ipcs else 0.0

    @property
    def total_committed(self) -> int:
        return sum(stats.committed for stats in self.thread_stats)

    @property
    def total_executed(self) -> int:
        """Executed work, including speculative/squashed (energy proxy)."""
        return sum(stats.executed for stats in self.thread_stats)

    @property
    def avg_cpi(self) -> float:
        """Cycles per committed instruction, machine-wide."""
        committed = self.total_committed
        if committed == 0:
            return float("inf")
        return self.cycles / committed

    def ed2(self) -> float:
        """The paper's efficiency proxy, per unit of architectural work.

        ED^2 = executed instructions x CPI^2, normalized by committed
        instructions so runs of different FAME lengths are comparable:
        (executed / committed) is the energy spent per useful instruction
        and CPI^2 the squared delay per useful instruction.
        """
        committed = self.total_committed
        if committed == 0:
            return float("inf")
        return (self.total_executed / committed) * self.avg_cpi ** 2

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "throughput": self.throughput,
            "committed": float(self.total_committed),
            "executed": float(self.total_executed),
            "ed2": self.ed2(),
        }

    def to_dict(self) -> Dict:
        """Canonical JSON-ready form.

        Every field is an int, bool, str or a list thereof — no floats —
        so a JSON round trip reconstructs a bit-identical result (the
        disk cache relies on this).
        """
        return {
            "benchmarks": list(self.benchmarks),
            "policy": self.policy,
            "cycles": self.cycles,
            "thread_stats": [stats.to_dict() for stats in self.thread_stats],
            "truncated": self.truncated,
            "l2_misses": list(self.l2_misses),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(
            benchmarks=list(data["benchmarks"]),
            policy=data["policy"],
            cycles=data["cycles"],
            thread_stats=[ThreadStats.from_dict(stats)
                          for stats in data["thread_stats"]],
            truncated=data.get("truncated", False),
            l2_misses=list(data.get("l2_misses", ())),
        )


class SMTProcessor:
    """User-facing simulator: configure, run, inspect."""

    def __init__(self, config: SMTConfig, traces: Sequence[Trace],
                 policy=None) -> None:
        """Build a processor.

        Args:
            config: Machine configuration (Table 1 defaults via
                ``SMTConfig()``).
            traces: One trace per hardware thread (1, 2 or 4 in the paper).
            policy: A policy instance; by default ``config.policy`` is
                resolved through :mod:`repro.policies.registry`.
        """
        from ..policies.registry import create_policy
        if policy is None:
            policy = create_policy(config.policy, config)
        self.config = config
        self.policy = policy
        self.pipeline = SMTPipeline(config, list(traces), policy)
        if config.warmup:
            self._warm()

    def _warm(self) -> None:
        """Functional warmup: replay each trace's memory and branch streams
        through the caches, BTB and predictor (no timing), then reset the
        statistics so measurement starts from steady state.

        Warmup is *selective*: a benchmark whose true working set (from its
        profile) fits in the L2 would, in reality, keep it resident, so all
        its lines are warmed.  A benchmark whose working set exceeds the L2
        can only keep its temporally re-touched (hot) lines resident —
        warming everything would let a short trace's small footprint
        masquerade as cacheable — so only lines whose touches span a good
        part of the trace are installed; bursty stream/cold-chase lines
        stay cold and keep missing during measurement, as they would at
        steady state.
        """
        pipeline = self.pipeline
        mem = pipeline.mem
        btb_insert = pipeline.btb.lookup_and_insert
        predict = pipeline.predictor.predict
        l2_bytes = self.config.l2.size_bytes
        l2_line_bytes = self.config.l2.line_bytes
        iline_bytes = self.config.icache.line_bytes
        for thread in pipeline.threads:
            # Physical addresses, so the span test groups them into the
            # lines warm_data installs (data_base need not be line-aligned).
            addrs = [thread.physical_addr(addr, 0)
                     for op, addr in zip(thread.ops, thread.addrs)
                     if IS_MEM_BY_CODE[op]]
            if thread.data_region > 0.75 * l2_bytes:
                lines = [addr // l2_line_bytes for addr in addrs]
                # A later position overwrites an earlier one, so walking
                # backwards leaves each line's first position.
                first = {line: position for position, line in zip(
                    range(len(lines) - 1, -1, -1), reversed(lines))}
                last = {line: position
                        for position, line in enumerate(lines)}
                span_needed = max(1, len(lines) // 4)
                addrs = [addr for addr, line in zip(addrs, lines)
                         if last[line] - first[line] >= span_needed]
            mem.warm_data(addrs)
            code_offset = thread.code_offset
            last_line = -1
            line_pcs = []
            branches = []
            for pc, op, taken in zip(thread.pcs, thread.ops, thread.takens):
                # The thread's fetch address and its i-cache line, as
                # computed by the fetch loop.
                pc += code_offset
                line = pc // iline_bytes
                if line != last_line:
                    line_pcs.append(pc)
                    last_line = line
                if op == _BRANCH_CODE:
                    branches.append((pc, taken))
                    if taken:
                        btb_insert(pc)
            mem.warm_ifetch(line_pcs)
            # Two training passes: the perceptron needs more than one
            # exposure per branch site to reach its steady accuracy.
            tid = thread.tid
            for _ in range(2):
                for pc, taken in branches:
                    predict(tid, pc, taken)
        mem.reset_stats()

    @property
    def cycle(self) -> int:
        return self.pipeline.cycle

    @property
    def threads(self):
        return self.pipeline.threads

    def step(self, cycles: int = 1) -> None:
        """Advance the machine (mainly for tests and debugging)."""
        for _ in range(cycles):
            self.pipeline.step()

    def run(self, min_passes: int = 1,
            max_cycles: Optional[int] = None) -> SimResult:
        """Run under FAME: stop once every thread finished ``min_passes``
        full trace executions (or at the cycle cap, flagged ``truncated``).

        FAME (FAirly Measuring Multithreaded Execution, Vera et al. [19])
        keeps a multithreaded measurement from being biased by a fast
        thread whose trace ends while a slow co-runner is still
        mid-flight.  Threads loop their traces forever (with a per-pass
        data shift so large working sets keep behaving like large
        working sets, see :mod:`repro.core.thread`), and the measurement
        stops once every thread has completed at least ``min_passes``
        full executions, so each thread's IPC is measured under
        continuous pressure from all its co-runners.

        The loop drives :meth:`SMTPipeline.advance`, so stretches where
        every thread is blocked on memory are jumped over in one go
        (event-driven cycle skipping) instead of being stepped cycle by
        cycle; results are bit-identical either way.
        """
        if min_passes < 1:
            raise SimulationError("min_passes must be >= 1")
        cap = max_cycles if max_cycles is not None else self.config.max_cycles
        # Looked up per call, not bound at import: instrumentation may
        # replace the module attribute (perfbench's tier probe does).
        # The import loads repro.sim's bare package and kernels.py only,
        # none of the campaign layers.
        from ..sim.kernels import resolve_run_loop
        run_loop = resolve_run_loop(self.pipeline)
        truncated = run_loop(self.pipeline, min_passes, cap)
        return self._result(truncated)

    def _result(self, truncated: bool) -> SimResult:
        pipeline = self.pipeline
        return SimResult(
            benchmarks=[t.trace.name for t in pipeline.threads],
            policy=self.policy.name,
            cycles=max(1, pipeline.cycle),
            thread_stats=[t.stats for t in pipeline.threads],
            truncated=truncated,
            l2_misses=[s.l2_misses for s in pipeline.mem.stats],
        )
