"""Every metric the benchmark reports: name, unit, direction, meaning.

This table is the benchmark's single source of truth for metric names
and units; ``BENCHMARK.json`` at the repository root repeats the names,
units and directions (plus each end-to-end metric's regression bound)
and ``perfbench/selftest.py`` checks that the two agree.

Each entry also says which end-to-end metric the number should move and
on which workload (``moves``), and where the prediction is no change
(``flat_on``).  A later change states its claim as one metric below on
one workload, and uses these predictions to show where the saving came
from (see the choosing-metrics method: a faster layer saves at most its
share of the blocking work).

Host time is what the simulator takes to run; simulated cycles are what
the modelled machine would take.  Every ``*_s`` and ``ns_*`` metric is
host time.  Simulated statistics (cycles, IPC, fairness) are never
end-to-end metrics here: the gate for simulator-speed changes is bit
identity, so they enter through ``failed_share`` (a cell whose digest
differs from its pin fails) and are repeated per layer as model counts.
The model has not been validated against hardware (the repository holds
no reference measurements), so no accuracy figure is reported.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Tuple


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str        # "lower" | "higher"
    definition: str
    moves: str = ""    # end-to-end metric (and workload) the number moves
    flat_on: str = ""  # workload where the prediction is no change


#: Reported by an untraced run (``--trace 0``), per workload.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower",
           "Host seconds from workload start to its last output, median "
           "over the run's cells.  A cell: trace generation through the "
           "return of SMTProcessor.run.  A campaign: Campaign.plan through "
           "every exhibit rendered, cold and warm pass."),
    Metric("setup_s", "s", "lower",
           "Host seconds before the first simulated cycle: the median "
           "`import repro` of fresh interpreters (one before each cell) "
           "plus the median per-cell set-up (generate_trace, "
           "SMTProcessor(...) with its functional warm-up, "
           "resolve_run_loop = kernel compile).  campaign: the median "
           "import plus the median Campaign.plan(), both probed before, "
           "between and after the campaigns."),
    Metric("sim_kips", "kinst/s", "higher",
           "Committed simulated instructions per host second spent "
           "simulating (thousands).  Cells: summed over SMTProcessor.run "
           "calls.  campaign: the cold pass's engine batch."),
    Metric("peak_rss_mib", "MiB", "lower",
           "Peak resident set of the run's process (ru_maxrss)."),
)

#: ``failed_share`` is printed by every run and by ``run.py --all`` but
#: is not an end-to-end metric of BENCHMARK.json: it is 0 whenever the
#: program is correct, and a regression bound is a share of the
#: parent's median.  The result line's ``attempted``/``failed`` carry it.
FAILED_SHARE = Metric(
    "failed_share", "ratio", "lower",
    "Failed operations / attempted.  An operation is one simulated cell "
    "or one rendered exhibit; it fails if it raises, is truncated, or "
    "its digest differs from the pin for its seed.")

_CELLS = "cells (rat-mem4, stall-mem2)"

#: Reported by a traced run (``--trace 1``).  The three ``*speedup``
#: ablations are measured untraced in the same process, interleaved
#: with default runs of the same cells; the campaign does not run them,
#: reports them as 0 and lists them, with the reason, in the run's
#: ``dropped`` record.  The cell workloads do the same for the plan,
#: store, assembly and render metrics, which only the campaign
#: exercises.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("trace.gen_s", "s", "lower", "generate_trace calls",
           "setup_s on cells, wall_s on campaign"),
    Metric("core.construct_s", "s", "lower",
           "SMTProcessor(...), including the functional warm-up",
           "setup_s on stall-mem2, wall_s on campaign"),
    Metric("kernels.compile_s", "s", "lower",
           "resolve_run_loop calls that compiled a new kernel shape",
           "setup_s on cells, wall_s on campaign"),
    Metric("kernels.compiled", "count", "lower",
           "len(kernel_cache.cache_info()) after the traced pass"),
    Metric("kernels.fallback_cells", "count", "lower",
           "cells whose resolved loop is python_run_loop under default "
           "knobs (expected 0)", "sim_kips everywhere"),
    Metric("kernels.speedup", "ratio", "higher",
           "median per-cell run_s under REPRO_KERNEL=python / default "
           "run_s (untraced ablation)", "sim_kips on rat-mem4"),
    Metric("core.run_s", "s", "lower", "SMTProcessor.run",
           "sim_kips on all workloads"),
    Metric("core.self_s", "s", "lower",
           "core.run_s minus its child spans (mem, branch, runahead, "
           "policies, kernels)", "sim_kips on rat-mem4"),
    Metric("core.sim_cycles", "count", "lower", "sum of SimResult.cycles",
           "model count, must not move", "all"),
    Metric("core.stepped_cycles", "count", "lower",
           "cycles - pipeline.skipped_cycles"),
    Metric("core.skip_fraction", "ratio", "higher",
           "skipped cycles / cycles", "wall_s on stall-mem2", "rat-mem4"),
    Metric("core.skip_jumps", "count", "higher", "pipeline.skip_jumps",
           "wall_s on stall-mem2", "rat-mem4"),
    Metric("core.skip_speedup", "ratio", "higher",
           "median per-cell run_s with pipeline.cycle_skip = False / "
           "default run_s (untraced ablation)",
           "wall_s on stall-mem2", "rat-mem4 (about 1)"),
    Metric("core.macro_share", "ratio", "higher",
           "gstats.macro_insts / dispatched instructions",
           "sim_kips on rat-mem4"),
    Metric("core.macro_speedup", "ratio", "higher",
           "median per-cell run_s under REPRO_SPECULATE=off / default "
           "run_s (untraced ablation; below 1 means the layer costs time)",
           "sim_kips on rat-mem4"),
    Metric("core.ns_per_stepped_cycle", "ns", "lower",
           "core.run_s / stepped cycles", "sim_kips on rat-mem4"),
    Metric("core.ns_per_fetched", "ns", "lower",
           "core.run_s / fetched instructions (one DynInst each)",
           "sim_kips on rat-mem4", "stall-mem2"),
    Metric("core.fetched_per_committed", "ratio", "lower",
           "fetched / committed (attempted vs useful work)",
           "model count, must not move", "all"),
    Metric("core.committed", "count", "higher", "committed instructions",
           "model count, must not move", "all"),
    Metric("core.ipc", "inst/cycle", "higher",
           "Eq. 1 throughput, mean over the traced cells",
           "model count, must not move", "all"),
    Metric("runahead.self_s", "s", "lower",
           "RunaheadController construction and public methods",
           "sim_kips on rat-mem4", "stall-mem2 (construction only)"),
    Metric("runahead.calls", "count", "lower", "same boundary"),
    Metric("runahead.episodes", "count", "lower", "sum of runahead_episodes",
           "model count", "all"),
    Metric("mem.self_s", "s", "lower",
           "MemoryHierarchy construction and public methods (warm-up "
           "calls included)",
           "sim_kips on rat-mem4"),
    Metric("mem.calls", "count", "lower", "same boundary"),
    Metric("mem.l2_misses", "count", "lower", "sum of SimResult.l2_misses",
           "model count", "all"),
    Metric("branch.self_s", "s", "lower",
           "PerceptronPredictor.predict, "
           "BranchTargetBuffer.lookup_and_insert", "sim_kips on rat-mem4"),
    Metric("branch.calls", "count", "lower", "same boundary"),
    Metric("branch.mispredict_rate", "ratio", "lower",
           "mispredicts / branches", "model count", "all"),
    Metric("policies.self_s", "s", "lower",
           "fetch_order, on_cycle, skip_horizon, on_l2_miss_detected",
           "wall_s on campaign (dcra/hill hooks)"),
    Metric("policies.calls", "count", "lower", "same boundary"),
    Metric("sim.plan_s", "s", "lower", "Campaign.plan() (cell keying)",
           "setup_s on campaign", _CELLS),
    Metric("sim.cells", "count", "higher",
           "manifest entries (campaign) or traced cells (cell workloads)"),
    Metric("sim.cell_p50_s", "s", "lower",
           "median per-cell host time: campaign cold pass from "
           "SimEngine's progress callback; cells from their untraced "
           "default runs", "wall_s on campaign", _CELLS),
    Metric("sim.cell_p90_s", "s", "lower",
           "90th percentile of the same samples", "wall_s on campaign",
           _CELLS),
    Metric("sim.store_put_s", "s", "lower", "DiskStore.put, cold pass",
           "wall_s on campaign", _CELLS),
    Metric("sim.store_get_s", "s", "lower", "DiskStore.get, warm pass",
           "wall_s on campaign", _CELLS),
    Metric("sim.store_bytes", "bytes", "lower",
           "store size on disk after the cold pass (results and "
           "rendered exhibits)"),
    Metric("experiments.assemble_s", "s", "lower",
           "Exhibit.assemble, both passes", "wall_s on campaign", _CELLS),
    Metric("experiments.render_s", "s", "lower",
           "ExhibitResult.render, both passes", "wall_s on campaign",
           _CELLS),
    Metric("attribution.overhead", "ratio", "lower",
           "traced wall / untraced wall of the same cells"),
)


def emit(values: Mapping[str, float],
         table: Tuple[Metric, ...]) -> Dict[str, Dict[str, object]]:
    """The result line's ``metrics`` object: every metric of ``table``,
    in table order, with its unit.  A missing value is a bug."""
    missing = [metric.name for metric in table if metric.name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in table}
