"""The benchmark's workloads and how each run measures them.

Run rules.  Each run is its own process, on the ``serial`` executor,
with no worker pool (the reference box has 2 cores; a pool would
measure the scheduler).  The run's ``--seed`` reaches the program only
as generated traces: cell ``i`` of a run uses trace seed
``seed * 1000 + i`` (:func:`trace_seed`), so the same seed always gives
the same inputs.  ``--seconds`` sizes a run through each workload's
nominal cell time; the number of cells depends on the argument, never
on measured speed, so two revisions measured with the same arguments
simulate exactly the same cells.  Two things set the run-to-run spread
of the host-time metrics, and both shrink only with more work per run:
the host (the reference box, a 2-core x86 VM, drifts by up to ~1.7x
over tens of seconds) and the seed (a campaign's simulated work moves
~20% with its trace seed).

Workloads.  Shares are of traced host time, measured on the reference
box with Python 3.11.7 (tracing overhead 1.04-1.2x).

``rat-mem4``
    Table 2's first MEM4 workload, art/mcf/swim/twolf, under ``rat``,
    3000 instructions per thread, run as ``generate_trace`` ->
    ``SMTProcessor`` -> ``run()`` (3-4 s per cell).  The paper's
    mechanism at its heaviest: under 1% of cycles are skipped and the
    threads fetch 6-7 instructions per committed one.  Of ``run()``:
    ~79% is the kernel loop itself (``core.self_s``), ~9% ``mem``, ~7%
    ``branch``, ~4% ``policies``, ~1% ``runahead``.  The python tier is
    ~1.25x slower, macro speculation costs ~8%, cycle skipping ~0.
    (``repro bench``'s mem4 tuple, applu/art/mcf/twolf, is not a Table 2
    workload, which is why this one differs from it.)
``stall-mem2``
    Table 2's MEM2 art/mcf under ``stall``, 12000 instructions per
    thread (~1.1 s of ``run()`` per cell).  ~78% of cycles are skipped
    and no thread runs ahead; set-up (trace generation, warm-up,
    compile) is ~19% of ``wall_s``.  Of ``run()``: ~82% kernel loop,
    ~11% ``branch``, ~8% ``mem``.  Cycle skipping is worth ~1.17x here
    and ~1.0x on ``rat-mem4``, so a skip change that costs busy cells
    time shows up as the two workloads moving in opposite directions;
    runahead and ``DynInst`` changes should leave this one flat.
``campaign``
    ``repro all`` at the ROADMAP's reduced scale: one workload per
    class, 1000-instruction traces -> 125 cells, 6 policies, 1/2/4
    threads and 9 kernel shapes, run as ``Campaign.plan`` ->
    ``Campaign.regenerate`` -> ``ExhibitResult.render`` in two passes.
    The cold pass writes a fresh ``DiskStore`` and render cache (14-22 s
    here); the warm pass is a fresh ``SimEngine`` over a fresh
    ``DiskStore`` on the same directory with the render cache bypassed:
    125 store reads and 8 assemblies (~0.2 s, tracked through
    ``sim.store_get_s``).  ``run()`` is ~90% of the cold pass, per-cell
    set-up repeated 125 times ~8%, policy hooks ~4%.  The only workload
    with per-cycle policy hooks (dcra, hill) and with the store,
    assembly and render layers.  A 30-second run makes two campaigns,
    one per trace seed, and reports the median of their walls.

``repro bench``, ``benchmarks/BENCH_*.json`` and their CI gate are left
as they are and are not the reference for claims: they time ``run()``
alone and compare calibration-normalized costs across sessions.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import baseline
from repro.core import kernel_cache
from repro.core.processor import SMTProcessor
from repro.experiments import Campaign, ExhibitContext, exhibit_names
from repro.experiments.registry import get_exhibit
from repro.sim import kernels
from repro.sim.engine import SimEngine, set_engine
from repro.sim.executors import get_executor
from repro.sim.runner import RunSpec
from repro.sim.store import EXHIBIT_DIR, DiskStore, ExhibitRenderCache
from repro.trace import generator

from . import checks
from .tracing import Instrumentation, TracedExhibit, Tracer

#: The memoized trace generator itself (instrumentation may replace the
#: module attribute with a timed wrapper; the cache belongs to this one).
_GENERATE = generator.generate_trace

_clock = time.perf_counter_ns

#: Set-up probes (one fresh ``import repro`` and, for the campaign, one
#: ``Campaign.plan()``) taken at each boundary between a campaign run's
#: passes.  Cell runs take one import probe before every cell.  Either
#: way the probes are spread over the whole run, so setup_s samples the
#: same stretch of host time as wall_s: the reference box's speed drifts
#: over tens of seconds, and probes bunched at the start of a run made
#: setup_s drift more than anything else.
PROBES_PER_BOUNDARY = 3


def trace_seed(seed: int, index: int) -> int:
    """Trace seed of cell ``index`` of a run (31 bits, as the generator
    masks its seed)."""
    return (seed * 1000 + index) % (1 << 31)


@dataclasses.dataclass(frozen=True)
class Ablation:
    """One same-session variant of a cell, set through a public knob."""

    name: str
    env: Optional[str] = None
    value: str = ""
    cycle_skip: bool = True


DEFAULT = Ablation("default")

#: Interleaved with the default run of every ablation cell, in an order
#: rotated per cell.  Each is reported as its ``*speedup`` metric.
ABLATIONS = (DEFAULT,
             Ablation("kernels.speedup", "REPRO_KERNEL", "python"),
             Ablation("core.skip_speedup", cycle_skip=False),
             Ablation("core.macro_speedup", "REPRO_SPECULATE", "off"))

#: Per-layer metrics a workload does not measure: reported as 0 and
#: listed with the reason in the run's ``dropped`` record.
CAMPAIGN_DROPPED = {
    ablation.name: "the layer ablations run on rat-mem4 and stall-mem2 only"
    for ablation in ABLATIONS[1:]
}
CELLS_DROPPED = {
    name: "measured on campaign only"
    for name in ("sim.plan_s", "sim.store_put_s", "sim.store_get_s",
                 "sim.store_bytes", "experiments.assemble_s",
                 "experiments.render_s")
}


@dataclasses.dataclass(frozen=True)
class CellWorkload:
    """One Table 2 workload under one policy, simulated cell by cell."""

    name: str
    klass: str
    benchmarks: Tuple[str, ...]
    policy: str
    trace_len: int
    #: Nominal host seconds per cell on the reference box; sizes runs.
    cell_s: float
    min_passes: int = 1
    max_cycles: int = 2_000_000
    #: An out-of-package policy class (self-tests only).
    policy_class: Optional[type] = None

    @property
    def pin_key(self) -> str:
        return f"{self.name}/len{self.trace_len}"

    def cells(self, seconds: float) -> int:
        """Cells in an untraced run of ``seconds``."""
        return max(3, round(seconds / self.cell_s))

    def ablation_cells(self, seconds: float) -> int:
        """Cells in a traced run (each also runs every ablation); at
        least 3, so each ``*speedup`` is a median of paired ratios."""
        return max(3, round(seconds / (len(ABLATIONS) * self.cell_s)))


@dataclasses.dataclass(frozen=True)
class CampaignWorkload:
    """``repro all`` at reduced scale, cold pass then warm pass."""

    name: str
    trace_len: int
    workloads_per_class: int
    #: Nominal host seconds per campaign on the reference box.
    campaign_s: float
    classes: Optional[Tuple[str, ...]] = None    # None: every class
    exhibits: Optional[Tuple[str, ...]] = None   # None: every exhibit

    @property
    def pin_key(self) -> str:
        classes = "-".join(self.classes) if self.classes else "all"
        exhibits = "-".join(self.exhibits) if self.exhibits else "all"
        return (f"{self.name}/len{self.trace_len}-wpc"
                f"{self.workloads_per_class}-{classes}-{exhibits}")

    def exhibit_names(self) -> List[str]:
        return list(self.exhibits) if self.exhibits else sorted(
            exhibit_names())

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.campaign_s))


WORKLOADS = {
    "rat-mem4": CellWorkload("rat-mem4", "MEM4",
                             ("art", "mcf", "swim", "twolf"), "rat", 3000,
                             cell_s=3.5),
    "stall-mem2": CellWorkload("stall-mem2", "MEM2", ("art", "mcf"),
                               "stall", 12000, cell_s=1.4),
    "campaign": CampaignWorkload("campaign", 1000, 1, campaign_s=15.0),
}

#: The same workloads at self-test size (``run.py --size tiny``): a few
#: seconds each, with their own pins.
TINY = {
    "rat-mem4": dataclasses.replace(WORKLOADS["rat-mem4"], trace_len=300,
                                    cell_s=1.0),
    "stall-mem2": dataclasses.replace(WORKLOADS["stall-mem2"],
                                      trace_len=600, cell_s=1.0),
    "campaign": dataclasses.replace(WORKLOADS["campaign"], trace_len=300,
                                    campaign_s=60.0, classes=("MEM2",),
                                    exhibits=("figure1", "table1")),
}


# --- shared helpers ----------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Inclusive-method percentile (stays within the sample range)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def import_seconds(root: str) -> float:
    """``import repro`` time of one fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import repro; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", code], cwd=root,
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
    return float(completed.stdout.split()[-1])


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_process_state() -> None:
    """Drop what a fresh process would not have: memoized traces and
    compiled kernels (both would make a repeat cell cheaper), and
    garbage from the previous cell."""
    _GENERATE.cache_clear()
    kernel_cache.clear_cache()
    gc.collect()


class Outcome:
    """Operations of one run: attempted, failed (with reasons), digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, object] = {}
        self.lines: List[str] = []
        #: Kernel tier each checked cell resolved to, by cell label.
        self.tiers: Dict[str, Optional[str]] = {}

    def operation(self, label: str, failure: str) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{label}: {failure}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# --- cell workloads ----------------------------------------------------------


@dataclasses.dataclass
class CellRun:
    seed: int
    setup_ns: int
    record: Dict[str, object]
    digest: str

    @property
    def run_ns(self) -> int:
        return self.record["run_ns"]

    @property
    def wall_ns(self) -> int:
        return self.setup_ns + self.run_ns


def simulate_cell(workload: CellWorkload, seed: int, inst: Instrumentation,
                  ablation: Ablation = DEFAULT) -> CellRun:
    """One cell from a fresh state: traces, processor, kernel, run."""
    fresh_process_state()
    with checks.knob(ablation.env, ablation.value), inst.span("cell"):
        start = _clock()
        traces = [generator.generate_trace(name, workload.trace_len, seed)
                  for name in workload.benchmarks]
        config = baseline().with_policy(workload.policy)
        policy = (workload.policy_class(config)
                  if workload.policy_class is not None else None)
        processor = SMTProcessor(config, traces, policy)
        processor.pipeline.cycle_skip = ablation.cycle_skip
        kernels.resolve_run_loop(processor.pipeline)
        setup_ns = _clock() - start
        processor.run(workload.min_passes, workload.max_cycles)
    record = inst.records[-1]
    return CellRun(seed, setup_ns, record,
                   checks.digest(record["result"].to_dict()))


def _check_cell(workload: CellWorkload, run: CellRun, pins: checks.Pins,
                outcome: Outcome, label: str,
                expected: Optional[str] = None) -> None:
    pinned = pins.get(workload.pin_key, run.seed)
    failure = checks.cell_failure(run.record, run.digest, pinned)
    if not failure and expected is not None and run.digest != expected:
        failure = f"digest {run.digest} != default run's {expected}"
    outcome.operation(label, failure)
    outcome.digests[str(run.seed)] = run.digest
    outcome.tiers[label] = run.record["tier"]
    outcome.lines.append(
        f"cell {label} trace_seed={run.seed} tier={run.record['tier']} "
        f"digest={run.digest} pinned={'yes' if pinned else 'no'} "
        f"{'FAILED ' + failure if failure else 'ok'}")


def _try_cell(workload, seed, inst, outcome, label, ablation=DEFAULT):
    try:
        return simulate_cell(workload, seed, inst, ablation)
    except Exception as error:  # a raising cell is a failed operation
        outcome.operation(label, f"raised {type(error).__name__}: {error}")
        return None


def measure_cells(workload: CellWorkload, seed: int, seconds: float,
                  pins: checks.Pins, root: str) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics over ``cells(seconds)``."""
    outcome = Outcome()
    runs: List[CellRun] = []
    imports: List[float] = []
    with Instrumentation() as inst:
        for index in range(workload.cells(seconds)):
            cell_seed = trace_seed(seed, index)
            label = f"{workload.name}#{index}"
            imports.append(import_seconds(root))
            run = _try_cell(workload, cell_seed, inst, outcome, label)
            if run is not None:
                _check_cell(workload, run, pins, outcome, label)
                runs.append(run)
    values = {}
    if runs:
        run_ns = sum(run.run_ns for run in runs)
        committed = sum(run.record["committed"] for run in runs)
        values = {
            "wall_s": statistics.median(run.wall_ns for run in runs) / 1e9,
            "setup_s": statistics.median(imports) + statistics.median(
                run.setup_ns for run in runs) / 1e9,
            "sim_kips": committed / (run_ns / 1e9) / 1000.0,
            "peak_rss_mib": peak_rss_mib(),
        }
    return {"values": values, "outcome": outcome,
            "tiers": [run.record["tier"] for run in runs]}


def trace_cells(workload: CellWorkload, seed: int, seconds: float,
                pins: checks.Pins, root: str) -> Dict[str, object]:
    """Traced run: untraced ablations interleaved with default runs of
    the same cells, then traced default runs of those cells."""
    outcome = Outcome()
    count = workload.ablation_cells(seconds)
    untraced: Dict[Tuple[int, str], CellRun] = {}
    with Instrumentation() as inst:
        for index in range(count):
            cell_seed = trace_seed(seed, index)
            shift = index % len(ABLATIONS)
            for ablation in ABLATIONS[shift:] + ABLATIONS[:shift]:
                label = f"{workload.name}#{index}/{ablation.name}"
                run = _try_cell(workload, cell_seed, inst, outcome, label,
                                ablation)
                if run is not None:
                    untraced[(index, ablation.name)] = run
        for (index, name), run in sorted(untraced.items()):
            default = untraced.get((index, DEFAULT.name))
            _check_cell(workload, run, pins, outcome,
                        f"{workload.name}#{index}/{name}",
                        None if default is None else default.digest)
    tracer = Tracer()
    traced: Dict[int, CellRun] = {}
    with Instrumentation(tracer) as traced_inst:
        for index in range(count):
            label = f"{workload.name}#{index}/traced"
            run = _try_cell(workload, trace_seed(seed, index), traced_inst,
                            outcome, label)
            if run is not None:
                traced[index] = run
                _check_cell(workload, run, pins, outcome, label)
    defaults = [untraced.get((index, DEFAULT.name)) for index in range(count)]
    mismatches = same_program(
        [(f"{workload.name}#{index}", defaults[index], traced.get(index))
         for index in range(count)])
    values = layer_values(
        tracer, traced_inst, [run.record for run in traced.values()],
        sum(defaults[index].run_ns for index in traced
            if defaults[index] is not None) / 1e9)
    for ablation in ABLATIONS[1:]:
        ratios = [untraced[(index, ablation.name)].run_ns
                  / untraced[(index, DEFAULT.name)].run_ns
                  for index in range(count)
                  if (index, ablation.name) in untraced
                  and (index, DEFAULT.name) in untraced]
        values[ablation.name] = statistics.median(ratios) if ratios else 0.0
    walls = [run.wall_ns / 1e9 for run in defaults if run is not None]
    traced_wall = sum(run.wall_ns for run in traced.values())
    untraced_wall = sum(defaults[index].wall_ns for index in traced
                        if defaults[index] is not None)
    values.update({
        "sim.cells": len(traced),
        "sim.cell_p50_s": statistics.median(walls) if walls else 0.0,
        "sim.cell_p90_s": percentile(walls, 0.9) if walls else 0.0,
        "attribution.overhead": ratio(traced_wall, untraced_wall),
    })
    for name in CELLS_DROPPED:
        values[name] = 0
    return {"values": values, "outcome": outcome, "dropped": CELLS_DROPPED,
            "mismatches": mismatches, "trace": tracer.dump(),
            "tiers": [run.record["tier"] for run in traced.values()]}


def directory_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, filename))
               for dirpath, _, filenames in os.walk(root)
               for filename in filenames)


def same_program(pairs) -> List[str]:
    """Where a traced run differs from the untraced run of the same cell:
    kernel tier, skip fraction or digest."""
    mismatches = []
    for label, untraced, traced in pairs:
        if untraced is None or traced is None:
            mismatches.append(f"{label}: missing from one side")
            continue
        for field, left, right in (
                ("tier", untraced.record["tier"], traced.record["tier"]),
                ("skip fraction",
                 ratio(untraced.record["skipped"], untraced.record["cycles"]),
                 ratio(traced.record["skipped"], traced.record["cycles"])),
                ("digest", untraced.digest, traced.digest)):
            if left != right:
                mismatches.append(f"{label}: {field} {left} untraced, "
                                  f"{right} traced")
    return mismatches


def layer_values(tracer: Tracer, inst: Instrumentation,
                 records: Sequence[Dict[str, object]],
                 untraced_run_s: float) -> Dict[str, float]:
    """Per-layer metrics shared by every workload's traced run.

    The ``ns_per_*`` costs divide the *untraced* run time of the same
    cells, so they carry no tracing overhead and track ``sim_kips``.
    """
    def total(field):
        return sum(record[field] for record in records)

    _, run_s, run_self_s = tracer.named("core.run")
    cycles, skipped = total("cycles"), total("skipped")
    stepped = cycles - skipped
    fetched, committed = total("fetched"), total("committed")
    runahead_calls, _, runahead_self = tracer.layer("runahead")
    mem_calls, _, mem_self = tracer.layer("mem")
    branch_calls, _, branch_self = tracer.layer("branch")
    policy_calls, _, policy_self = tracer.layer("policies")
    return {
        "trace.gen_s": tracer.named("trace.generate")[1],
        "core.construct_s": tracer.named("core.construct")[1],
        "kernels.compile_s": inst.compile_ns / 1e9,
        "kernels.compiled": len(kernel_cache.cache_info()),
        "kernels.fallback_cells": sum(1 for record in records
                                      if record["tier"] == "python"),
        "core.run_s": run_s,
        "core.self_s": run_self_s,
        "core.sim_cycles": cycles,
        "core.stepped_cycles": stepped,
        "core.skip_fraction": ratio(skipped, cycles),
        "core.skip_jumps": total("skip_jumps"),
        "core.macro_share": ratio(total("macro_insts"), total("dispatched")),
        "core.ns_per_stepped_cycle": ratio(untraced_run_s * 1e9, stepped),
        "core.ns_per_fetched": ratio(untraced_run_s * 1e9, fetched),
        "core.fetched_per_committed": ratio(fetched, committed),
        "core.committed": committed,
        "core.ipc": ratio(total("throughput"), len(records)),
        "runahead.self_s": runahead_self,
        "runahead.calls": runahead_calls,
        "runahead.episodes": total("episodes"),
        "mem.self_s": mem_self,
        "mem.calls": mem_calls,
        "mem.l2_misses": total("l2_misses"),
        "branch.self_s": branch_self,
        "branch.calls": branch_calls,
        "branch.mispredict_rate": ratio(total("mispredicts"),
                                        total("branches")),
        "policies.self_s": policy_self,
        "policies.calls": policy_calls,
        "sim.plan_s": tracer.named("sim.plan")[1],
        "sim.store_put_s": tracer.named("sim.store_put")[1],
        "sim.store_get_s": tracer.named("sim.store_get")[1],
        "experiments.assemble_s": tracer.named("experiments.assemble")[1],
        "experiments.render_s": tracer.named("experiments.render")[1],
    }


# --- the campaign ------------------------------------------------------------


def cell_id(cell) -> str:
    """Salt-free, readable identity of a campaign cell (pins survive a
    cache-salt bump that leaves results bit-identical)."""
    config = checks.digest(cell.config.to_dict())[:8]
    return (f"{cell.workload.klass}:{'-'.join(cell.workload.benchmarks)}:"
            f"{cell.policy}:{config}:p{cell.spec.min_passes}")


def _context(workload: CampaignWorkload, seed: int) -> ExhibitContext:
    spec = RunSpec(trace_len=workload.trace_len, seed=seed)
    return ExhibitContext.make(baseline(), spec, workload.classes,
                               workload.workloads_per_class)


def _render(results, names, inst) -> Dict[str, str]:
    with inst.span("experiments.render"):
        return {name: results[name].render("text") for name in names}


def campaign_pass(workload: CampaignWorkload, seed: int,
                  inst: Instrumentation, work_dir: str) -> Dict[str, object]:
    """Plan, cold regenerate + render, warm regenerate + render."""
    fresh_process_state()
    names = workload.exhibit_names()
    exhibits = [get_exhibit(name) for name in names]
    if inst.tracer is not None:
        exhibits = [TracedExhibit(exhibit, inst.tracer)
                    for exhibit in exhibits]
    ctx = _context(workload, seed)
    root = tempfile.mkdtemp(prefix="campaign-", dir=work_dir)
    ticks: List[int] = []
    first_record = len(inst.records)
    try:
        store = DiskStore(root)
        inst.wrap_instance(store, "put", "sim.store_put")
        inst.wrap_instance(store, "get", "sim.store_lookup")
        engine = SimEngine(backend=get_executor("serial"), store=store,
                           progress=lambda *_: ticks.append(_clock()))
        render_cache = ExhibitRenderCache(os.path.join(root, EXHIBIT_DIR))
        warm_store = DiskStore(root)
        inst.wrap_instance(warm_store, "get", "sim.store_get")
        warm_engine = SimEngine(backend=get_executor("serial"),
                                store=warm_store)
        # Like the CLI: layers below the campaign reach the engine
        # through the process default.
        previous = set_engine(engine)
        try:
            start = _clock()
            with inst.span("campaign.cold"):
                campaign = Campaign(exhibits, ctx=ctx, engine=engine)
                manifest = campaign.plan()
                cold, _ = campaign.regenerate(cache=render_cache)
                cold_texts = _render(cold, names, inst)
            cold_records = inst.records[first_record:]
            pause = _clock()
            store_bytes = directory_bytes(root)
            set_engine(warm_engine)
            resume = _clock()
            with inst.span("campaign.warm"):
                warm, _ = Campaign(exhibits, ctx=ctx,
                                   engine=warm_engine).regenerate()
                warm_texts = _render(warm, names, inst)
            wall_ns = _clock() - resume + pause - start
        finally:
            set_engine(previous)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "names": names, "manifest": manifest, "wall_ns": wall_ns,
        "ticks": ticks, "records": cold_records, "store_bytes": store_bytes,
        "cold": cold, "warm": warm, "texts": (cold_texts, warm_texts),
        "warm_simulated": warm_engine.counters.simulated,
        "warm_store_hits": warm_engine.counters.store_hits,
    }


def check_campaign(workload: CampaignWorkload, seed: int, result,
                   pins: checks.Pins, outcome: Outcome) -> Dict[str, CellRun]:
    """Every cell and every rendered exhibit (both passes) is an
    operation.  Returns the simulated cells by cell id."""
    pinned = pins.get(workload.pin_key, seed) or {}
    pinned_cells = pinned.get("cells", {})
    pinned_exhibits = pinned.get("exhibits", {})
    by_key = {record["cell"].key(): record for record in result["records"]
              if record["cell"] is not None}
    cells: Dict[str, CellRun] = {}
    for entry in result["manifest"].entries:
        ident = cell_id(entry.cell)
        record = by_key.get(entry.key)
        if record is None:
            outcome.operation(ident, "never simulated in the cold pass")
            continue
        cell_digest = checks.digest(record["result"].to_dict())
        cells[ident] = CellRun(seed, 0, record, cell_digest)
        pin = pinned_cells.get(ident)
        failure = checks.cell_failure(record, cell_digest, pin)
        outcome.operation(ident, failure)
        outcome.tiers[f"{ident}@{seed}"] = record["tier"]
        outcome.lines.append(
            f"cell {ident} trace_seed={seed} tier={record['tier']} "
            f"digest={cell_digest} pinned={'yes' if pin else 'no'} "
            f"{'FAILED ' + failure if failure else 'ok'}")
    exhibit_digests = {}
    cold_texts, warm_texts = result["texts"]
    for name in result["names"]:
        cold_digest = checks.digest(result["cold"][name].to_dict())
        warm_digest = checks.digest(result["warm"][name].to_dict())
        exhibit_digests[name] = cold_digest
        pin = pinned_exhibits.get(name)
        for side, side_digest, text in (("cold", cold_digest, cold_texts),
                                        ("warm", warm_digest, warm_texts)):
            failure = ""
            if pin is not None and side_digest != pin:
                failure = f"digest {side_digest} != pin {pin}"
            elif side_digest != cold_digest:
                failure = f"digest {side_digest} != cold pass {cold_digest}"
            elif not text[name].strip():
                failure = "rendered empty"
            outcome.operation(f"{name}/{side}", failure)
        outcome.lines.append(
            f"exhibit {name} digest={cold_digest} "
            f"pinned={'yes' if pin else 'no'}")
    outcome.digests[str(seed)] = {
        "cells": {ident: run.digest for ident, run in sorted(cells.items())},
        "exhibits": exhibit_digests}
    outcome.lines.append(
        f"campaign trace_seed={seed} cells={len(cells)} "
        f"warm: simulated={result['warm_simulated']} "
        f"store_hits={result['warm_store_hits']}")
    return cells


def _campaign_operations(workload: CampaignWorkload) -> int:
    """Operations a campaign that raised had attempted (all failed)."""
    ctx = _context(workload, 0)
    cells = Campaign(workload.exhibit_names(), ctx=ctx,
                     engine=SimEngine()).plan()
    return len(cells) + 2 * len(workload.exhibit_names())


def _guarded_pass(workload, seed, inst, work_dir, outcome):
    try:
        return campaign_pass(workload, seed, inst, work_dir)
    except Exception as error:  # the whole campaign's operations fail
        failed = _campaign_operations(workload)
        outcome.attempted += failed
        outcome.failures.extend(
            [f"campaign trace_seed={seed}: raised "
             f"{type(error).__name__}: {error}"] * failed)
        return None


def _probe_setup(workload: CampaignWorkload, seed: int, root: str,
                 imports: List[float], plans: List[float]) -> None:
    """One boundary's set-up probes: fresh imports and Campaign.plan()."""
    ctx = _context(workload, seed)
    for _ in range(PROBES_PER_BOUNDARY):
        imports.append(import_seconds(root))
        campaign = Campaign(workload.exhibit_names(), ctx=ctx,
                            engine=SimEngine())
        start = _clock()
        campaign.plan()
        plans.append((_clock() - start) / 1e9)


def _batch(result) -> Tuple[int, int]:
    """(committed, host ns) of the cold pass's engine batch."""
    ticks = result["ticks"]
    committed = sum(record["committed"] for record in result["records"])
    return committed, ticks[-1] - ticks[0]


def measure_campaign(workload: CampaignWorkload, seed: int, seconds: float,
                     pins: checks.Pins, root: str) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics over ``passes(seconds)``."""
    outcome = Outcome()
    work_dir = out_dir(root)
    imports: List[float] = []
    plans: List[float] = []
    results = []
    with Instrumentation() as inst:
        for index in range(workload.passes(seconds)):
            cell_seed = trace_seed(seed, index)
            _probe_setup(workload, cell_seed, root, imports, plans)
            result = _guarded_pass(workload, cell_seed, inst, work_dir,
                                   outcome)
            if result is not None:
                check_campaign(workload, cell_seed, result, pins, outcome)
                results.append(result)
        _probe_setup(workload, cell_seed, root, imports, plans)
    values = {}
    tiers: List[str] = []
    if results:
        committed = sum(_batch(result)[0] for result in results)
        batch_ns = sum(_batch(result)[1] for result in results)
        values = {
            "wall_s": statistics.median(result["wall_ns"]
                                        for result in results) / 1e9,
            "setup_s": statistics.median(imports) + statistics.median(plans),
            "sim_kips": committed / (batch_ns / 1e9) / 1000.0,
            "peak_rss_mib": peak_rss_mib(),
        }
        tiers = [record["tier"] for record in results[0]["records"]]
    return {"values": values, "outcome": outcome, "tiers": tiers}


def trace_campaign(workload: CampaignWorkload, seed: int, seconds: float,
                   pins: checks.Pins, root: str) -> Dict[str, object]:
    """Traced run: an untraced campaign, then the same campaign traced."""
    outcome = Outcome()
    work_dir = out_dir(root)
    cell_seed = trace_seed(seed, 0)
    with Instrumentation() as inst:
        untraced = _guarded_pass(workload, cell_seed, inst, work_dir, outcome)
    tracer = Tracer()
    with Instrumentation(tracer) as traced_inst:
        traced = _guarded_pass(workload, cell_seed, traced_inst, work_dir,
                               outcome)
    if untraced is None or traced is None:
        return {"values": {}, "outcome": outcome, "tiers": []}
    left = check_campaign(workload, cell_seed, untraced, pins, outcome)
    right = check_campaign(workload, cell_seed, traced, pins, outcome)
    mismatches = same_program([(ident, left[ident], right.get(ident))
                               for ident in sorted(left)])
    ticks = untraced["ticks"]
    per_cell = [(later - earlier) / 1e9
                for earlier, later in zip(ticks, ticks[1:])]
    values = layer_values(
        tracer, traced_inst, traced["records"],
        sum(record["run_ns"] for record in untraced["records"]) / 1e9)
    values.update({
        "sim.cells": len(untraced["manifest"]),
        "sim.cell_p50_s": statistics.median(per_cell),
        "sim.cell_p90_s": percentile(per_cell, 0.9),
        "sim.store_bytes": untraced["store_bytes"],
        "attribution.overhead": ratio(traced["wall_ns"],
                                      untraced["wall_ns"]),
    })
    for name in CAMPAIGN_DROPPED:
        values[name] = 0
    return {"values": values, "outcome": outcome,
            "dropped": CAMPAIGN_DROPPED, "mismatches": mismatches,
            "trace": tracer.dump(),
            "tiers": [record["tier"] for record in traced["records"]]}


def out_dir(root: str) -> str:
    """The benchmark's working and report directory in the checkout."""
    path = os.path.join(root, ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path


def measure(workload, seed: int, seconds: float, traced: bool,
            pins: checks.Pins, root: str) -> Dict[str, object]:
    """One run of one workload: untraced (end-to-end) or traced."""
    if isinstance(workload, CampaignWorkload):
        runner = trace_campaign if traced else measure_campaign
    else:
        runner = trace_cells if traced else measure_cells
    return runner(workload, seed, seconds, pins, root)
