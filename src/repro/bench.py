"""The ``repro bench`` harness: wall-clock timing of representative cells.

The benchmark matrix covers 1/2/4-thread workloads from the ILP/MEM/MIX
classes under the policies that matter for the paper (ICOUNT, STALL,
FLUSH, RaT).  Each cell is timed end to end through
:meth:`SMTProcessor.run` (construction and functional warmup excluded,
trace generation memoized outside the timer), once with the event-driven
cycle-skipping fast path enabled and once with it disabled, so every
report carries its own skip-attribution.

Reports are JSON documents (``BENCH_<rev>.json``, ``BENCH_<rev>-dirty.json``
when ``src/`` has uncommitted changes) with a *calibration
constant* — the wall time of a fixed pure-Python integer loop on the
same interpreter — so two reports from different machines can be
compared through their calibration-normalized times instead of raw
seconds.  ``repro bench --check BASELINE`` does exactly that and fails
when cells regress beyond the tolerance; CI runs it against the
committed baseline (see ``benchmarks/``).

The headline cell for the cycle-skipping work is ``mem2-stall``: a
MEM-heavy 2-thread workload whose threads spend most of their time
blocked on L2 misses — exactly the stretches the fast path jumps over.
The runahead-heavy cells (``mem2-rat``, ``mem4-rat``) are the opposite
regime and the headline for the intra-thread skip + hot-loop work: a
RaT machine is busy nearly every cycle, so they gate the per-structure
horizon fast path and the per-instruction hot paths; both are in the
``--quick`` matrix so CI exercises them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional

from .config import KERNEL_ENV_VAR, baseline, kernel_mode
from .core.processor import SMTProcessor
from .trace.generator import generate_trace

#: Report schema identifier.
BENCH_SCHEMA = "repro-bench-v1"

#: Calibration constants further apart than this make normalized
#: comparisons suspect (PR 6 recorded ~124 -> 70-93 ms drift across
#: machine states of one box); --check/--compare warn past it.
CALIBRATION_DRIFT_RATIO = 1.25

#: The acceptance-criterion cell (MEM-heavy, 2 threads, memory-blocked).
HEADLINE_CELL = "mem2-stall"

#: Environment override for the revision stamped into the report name.
REV_ENV_VAR = "REPRO_BENCH_REV"

#: Calibration loop iterations (~40 ms on a 2020s x86 core).
_CALIBRATION_N = 2_000_000


@dataclasses.dataclass(frozen=True)
class BenchCell:
    """One timed configuration."""

    id: str
    klass: str
    benchmarks: tuple
    policy: str
    trace_len: int = 3000
    min_passes: int = 1
    quick: bool = False      # included in --quick runs

    @property
    def threads(self) -> int:
        return len(self.benchmarks)


#: The benchmark matrix (workload tuples from Table 2).
BENCH_CELLS = (
    # 1 thread — the runahead-origin single-thread cases.
    BenchCell("mem1-icount", "SINGLE", ("mcf",), "icount"),
    BenchCell("mem1-rat", "SINGLE", ("mcf",), "rat"),
    BenchCell("ilp1-icount", "SINGLE", ("gzip",), "icount"),
    # 2 threads — every policy on the MEM-heavy pair, plus class spread.
    BenchCell("ilp2-icount", "ILP2", ("gzip", "bzip2"), "icount",
              quick=True),
    BenchCell("mem2-icount", "MEM2", ("art", "mcf"), "icount"),
    BenchCell("mem2-stall", "MEM2", ("art", "mcf"), "stall", quick=True),
    BenchCell("mem2-flush", "MEM2", ("art", "mcf"), "flush"),
    BenchCell("mem2-rat", "MEM2", ("art", "mcf"), "rat", quick=True),
    BenchCell("mix2-stall", "MIX2", ("bzip2", "mcf"), "stall", quick=True),
    BenchCell("mix2-rat", "MIX2", ("bzip2", "mcf"), "rat"),
    # 4 threads — the heavy end of Table 2.
    BenchCell("ilp4-icount", "ILP4", ("gzip", "bzip2", "eon", "gcc"),
              "icount"),
    BenchCell("mem4-stall", "MEM4", ("applu", "art", "mcf", "twolf"),
              "stall"),
    # quick=True: the runahead-heavy cells gate the intra-thread skip
    # fast path in CI (mem2-rat above is quick already).
    BenchCell("mem4-rat", "MEM4", ("applu", "art", "mcf", "twolf"), "rat",
              quick=True),
    BenchCell("mix4-rat", "MIX4", ("ammp", "applu", "apsi", "eon"), "rat"),
)


def bench_cells(quick: bool = False) -> List[BenchCell]:
    """The matrix, or its CI-sized ``--quick`` subset."""
    if quick:
        return [cell for cell in BENCH_CELLS if cell.quick]
    return list(BENCH_CELLS)


def calibrate(repeats: int = 5) -> float:
    """Wall time of a fixed pure-Python loop (machine speed constant).

    Dividing a cell's seconds by this constant yields a dimensionless
    cost that transfers between machines far better than raw seconds,
    which is what ``--check`` compares.
    """
    return calibration_detail(repeats)["median_seconds"]


def calibration_detail(repeats: int = 5) -> Dict:
    """Median-of-K calibration with its own noise accounting.

    PR 6 recorded the best-of-3 constant drifting ~124 -> 70-93 ms
    across machine states, poisoning every normalized comparison made
    through it.  The median of K runs is robust to a slow outlier *and*
    to a single lucky turbo burst (which best-of-K is not); the spread
    ``(max - min) / median`` is embedded in the report so a reader of
    any future comparison can judge how trustworthy the constant was.
    """
    repeats = max(1, repeats)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(_CALIBRATION_N):
            total += value & 7
        samples.append(time.perf_counter() - started)
        if total < 0:  # pragma: no cover - keeps the loop un-eliminable
            raise AssertionError
    samples.sort()
    median = samples[len(samples) // 2]
    return {
        "repeats": repeats,
        "median_seconds": median,
        "spread": ((samples[-1] - samples[0]) / median
                   if median > 0 else 0.0),
        "samples": samples,
    }


def calibration_drift_warning(report: Dict, reference: Dict,
                              threshold: float = CALIBRATION_DRIFT_RATIO
                              ) -> Optional[str]:
    """A loud warning when two reports' calibration constants diverge.

    Returns None while the constants are within ``threshold`` of each
    other; past it, every normalized ratio between the two reports
    carries the drift as a hidden factor, so ``--check``/``--compare``
    print this instead of letting the numbers look authoritative.
    """
    ours = report.get("calibration_seconds")
    theirs = reference.get("calibration_seconds")
    if not ours or not theirs or ours <= 0 or theirs <= 0:
        return None
    ratio = ours / theirs if ours >= theirs else theirs / ours
    if ratio <= threshold:
        return None
    return (f"[bench] WARNING: calibration constants differ "
            f"{ratio:.2f}x (this run {ours * 1e3:.1f} ms, reference "
            f"{theirs * 1e3:.1f} ms > {threshold:.2f}x apart) — "
            f"normalized comparisons between these reports absorb "
            f"that machine-speed drift; re-baseline on this machine "
            f"state before trusting ratios near the tolerance")


def time_cell(cell: BenchCell, cycle_skip: bool = True,
              repeats: int = 3, kernel: Optional[str] = None) -> Dict:
    """Best-of-``repeats`` wall time for one cell.

    Returns the timing plus the run's simulation statistics (cycle
    counts and skip accounting from the final repeat — every repeat is
    bit-identical, so any of them is representative).  ``kernel`` pins
    the run-loop tier for this timing by setting ``REPRO_KERNEL``
    around the runs (restored afterwards) — the bench harness is
    outside the determinism scope that bars env reads, and the knob
    cannot change results, only speed.
    """
    traces = [generate_trace(name, cell.trace_len, 1)
              for name in cell.benchmarks]
    config = baseline().with_policy(cell.policy)
    best = float("inf")
    result = None
    pipeline = None
    saved_kernel = os.environ.get(KERNEL_ENV_VAR)
    if kernel is not None:
        os.environ[KERNEL_ENV_VAR] = kernel
    try:
        # Warm the per-process kernel cache before timing so the first
        # repeat does not carry the one-off source-emission + compile
        # cost of the specialized tier.
        warm = SMTProcessor(config, traces)
        warm.pipeline.cycle_skip = cycle_skip
        warm.run(min_passes=cell.min_passes)
        for _ in range(max(1, repeats)):
            processor = SMTProcessor(config, traces)
            processor.pipeline.cycle_skip = cycle_skip
            started = time.perf_counter()
            result = processor.run(min_passes=cell.min_passes)
            best = min(best, time.perf_counter() - started)
            pipeline = processor.pipeline
    finally:
        if kernel is not None:
            if saved_kernel is None:
                os.environ.pop(KERNEL_ENV_VAR, None)
            else:
                os.environ[KERNEL_ENV_VAR] = saved_kernel
    return {
        "seconds": best,
        "cycles": result.cycles,
        "committed": result.total_committed,
        "skipped_cycles": pipeline.skipped_cycles,
        "skip_jumps": pipeline.skip_jumps,
    }


def current_revision() -> str:
    """Short revision for the report name (env override, else git)."""
    rev = os.environ.get(REV_ENV_VAR)
    if rev:
        return rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def tree_dirty() -> Optional[bool]:
    """Does ``src/`` differ from ``HEAD`` (``git status --porcelain``)?

    ``None`` outside a git checkout.  A report timed on a dirty tree
    measures code that its revision alone does not name.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", "."],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        if out.returncode == 0:
            return bool(out.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def revision_label(report: Dict) -> str:
    """The report's revision, suffixed ``-dirty`` for a dirty tree."""
    suffix = "-dirty" if report.get("dirty") else ""
    return f"{report.get('revision', 'unknown')}{suffix}"


def run_bench(quick: bool = False, repeats: int = 3,
              measure_noskip: bool = True, compare_kernels: bool = False,
              progress=None) -> Dict:
    """Run the matrix and return the report document.

    ``compare_kernels`` additionally times every cell under the forced
    ``python`` run-loop tier and records ``seconds_python`` /
    ``kernel_speedup`` per cell — the specialized-vs-python evidence
    must come from one machine session, not from diffing two reports
    whose calibration constants may have drifted apart.
    """
    cells = bench_cells(quick)
    calibration_info = calibration_detail()
    calibration = calibration_info["median_seconds"]
    report: Dict = {
        "schema": BENCH_SCHEMA,
        "revision": current_revision(),
        "dirty": tree_dirty(),
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "calibration_seconds": calibration,
        "calibration": calibration_info,
        "kernel": kernel_mode(),
        "cells": {},
    }
    for cell in cells:
        timed = time_cell(cell, cycle_skip=True, repeats=repeats)
        seconds = timed["seconds"]
        cycles = timed["cycles"]
        entry = {
            "klass": cell.klass,
            "benchmarks": list(cell.benchmarks),
            "policy": cell.policy,
            "threads": cell.threads,
            "trace_len": cell.trace_len,
            "seconds": seconds,
            "normalized": seconds / calibration,
            "cycles": cycles,
            "committed": timed["committed"],
            "skipped_cycles": timed["skipped_cycles"],
            "skip_jumps": timed["skip_jumps"],
            # Guarded ratios: a degenerate cell (0 simulated cycles, or a
            # wall time below timer resolution) must produce a report, not
            # a ZeroDivisionError.
            "skip_fraction": (timed["skipped_cycles"] / cycles
                              if cycles > 0 else 0.0),
            "sim_cycles_per_second": (cycles / seconds
                                      if seconds > 0 else 0.0),
        }
        if measure_noskip:
            reference = time_cell(cell, cycle_skip=False, repeats=repeats)
            entry["seconds_noskip"] = reference["seconds"]
            entry["speedup_vs_noskip"] = (reference["seconds"] / seconds
                                          if seconds > 0 else 0.0)
        if compare_kernels:
            forced = time_cell(cell, cycle_skip=True, repeats=repeats,
                               kernel="python")
            entry["seconds_python"] = forced["seconds"]
            entry["kernel_speedup"] = (forced["seconds"] / seconds
                                       if seconds > 0 else 0.0)
        report["cells"][cell.id] = entry
        if progress is not None:
            note = (f"  {cell.id}: {entry['seconds']:.3f}s "
                    f"({entry['skip_fraction']:.0%} cycles skipped")
            if measure_noskip:
                note += f", {entry['speedup_vs_noskip']:.2f}x vs no-skip"
            if compare_kernels:
                note += f", {entry['kernel_speedup']:.2f}x vs python tier"
            progress(note + ")")
    return report


def render_report(report: Dict) -> str:
    """Human-readable table of a report."""
    lines = [f"repro bench @ {revision_label(report)} "
             f"(python {report['python']}, "
             f"calibration {report['calibration_seconds'] * 1e3:.1f} ms, "
             f"best of {report['repeats']})",
             f"{'cell':14s} {'policy':7s} {'thr':>3s} {'seconds':>8s} "
             f"{'Mcyc/s':>7s} {'skipped':>8s} {'vs-noskip':>9s}"]
    for cell_id, entry in report["cells"].items():
        speedup = entry.get("speedup_vs_noskip")
        lines.append(
            f"{cell_id:14s} {entry['policy']:7s} {entry['threads']:3d} "
            f"{entry['seconds']:8.3f} "
            f"{entry['sim_cycles_per_second'] / 1e6:7.2f} "
            f"{entry['skip_fraction']:8.0%} "
            + (f"{speedup:8.2f}x" if speedup is not None else
               f"{'-':>9s}"))
    return "\n".join(lines)


def check_report(report: Dict, reference: Dict,
                 tolerance: float = 2.0) -> List[str]:
    """Compare calibration-normalized cell times against a reference.

    Returns a list of failure messages (empty when every shared cell is
    within ``tolerance`` times its reference cost).  Ratios below 1 are
    speedups; only slowdowns can fail the check.
    """
    failures = []
    for cell_id, entry in report["cells"].items():
        ref = reference.get("cells", {}).get(cell_id)
        if ref is None or "normalized" not in ref:
            continue
        if ref["normalized"] <= 0:
            # A zero/negative reference cost can only come from a corrupt
            # or hand-edited baseline; fail with a message, not a
            # ZeroDivisionError.
            failures.append(
                f"{cell_id}: reference normalized cost is "
                f"{ref['normalized']!r} (corrupt baseline?)")
            continue
        ratio = entry["normalized"] / ref["normalized"]
        if ratio > tolerance:
            failures.append(
                f"{cell_id}: {ratio:.2f}x the reference cost "
                f"(now {entry['seconds']:.3f}s normalized "
                f"{entry['normalized']:.2f}, reference normalized "
                f"{ref['normalized']:.2f}, tolerance {tolerance:.2f}x)")
    return failures


def compare_summary(report: Dict, reference: Dict) -> List[str]:
    """Per-cell speedup lines against a reference report.

    Only the intersection of the two cell sets is diffed: a reference
    recorded before a cell was added to the matrix (or a --quick report
    diffed against a full one) yields a warning line per side, never a
    lookup error.
    """
    lines = []
    ref_cells = reference.get("cells", {})
    missing_ref = [cell_id for cell_id in report["cells"]
                   if cell_id not in ref_cells]
    missing_here = [cell_id for cell_id in ref_cells
                    if cell_id not in report["cells"]]
    if missing_ref:
        lines.append(f"  [compare] {len(missing_ref)} cell(s) absent "
                     f"from the reference, skipped: "
                     f"{', '.join(sorted(missing_ref))}")
    if missing_here:
        lines.append(f"  [compare] {len(missing_here)} reference cell(s) "
                     f"not in this run, skipped: "
                     f"{', '.join(sorted(missing_here))}")
    for cell_id, entry in report["cells"].items():
        ref = ref_cells.get(cell_id)
        if ref is None or "normalized" not in ref:
            continue
        if entry["normalized"] <= 0:
            lines.append(f"  {cell_id}: current normalized cost is "
                         f"{entry['normalized']!r}; no speedup computable")
            continue
        speedup = ref["normalized"] / entry["normalized"]
        lines.append(f"  {cell_id}: {speedup:.2f}x vs reference "
                     f"({ref['normalized']:.2f} -> "
                     f"{entry['normalized']:.2f} calibrated units)")
    return lines


def write_report(report: Dict, path: Optional[str] = None) -> str:
    """Write ``BENCH_<rev>[-dirty].json`` (or ``path``); returns the path.

    Uses the store's atomic temp-file + replace protocol so an
    interrupted bench run can never leave a torn report where CI's
    ``--check`` would read it.
    """
    if path is None:
        path = f"BENCH_{revision_label(report)}.json"
    from .sim.store import atomic_write_json
    atomic_write_json(path, report, indent=2, trailing_newline=True)
    return path


def load_report(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} report")
    return report
