"""Same-session performance gate: this checkout against a base revision.

Usage (pure Python; nothing to build)::

    python3 benchmarks/perf_gate.py HEAD^1

The base revision is checked out into a temporary ``git worktree``,
removed when the gate ends.  Each of ``PAIRS`` pairs runs
``perfbench/run.py --seconds SECONDS`` on each of ``WORKLOADS`` once in
the base checkout (side ``parent``) and once in this one (side
``change``), each side with its own ``perfbench/`` and ``src/``.  The
side that runs first alternates from pair to pair, and pair ``i`` runs
seed ``i`` on both sides, so a pair's two runs simulate the same cells.

The verdict takes each pair's ``sim_kips`` ratio, change / parent, and
its median per workload, so one noisy pair can neither fail nor pass
the gate.  Exit status:

* 0: every median ratio is at least ``1 - TOLERANCE`` and every run
  passed;
* 1: a median ratio is below that, or a change-side run failed: it
  exited non-zero, reported ``"correct": false``, or failed more
  operations than its paired parent run;
* 2: a parent-side run failed, so the change has nothing to be
  compared with.

The two sides' digests need not match: a change that alters results
re-pins perfbench in its own tree, and each side checks its own pins.

Standard output is the per-pair table and the verdict.  The raw runs go
to ``perf_gate.jsonl`` at the root of the checkout, one JSON object per
run with the fields of ``benchmarks/AB_*.jsonl``: ``side``, ``seed``,
``workload``, ``run_order``, ``exit``, ``correct``, ``attempted``,
``failed`` and ``metrics`` (each end-to-end metric's value).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "perf_gate.jsonl")
METRIC = "sim_kips"
#: The runahead-heaviest workload (kernel loop, mem, branch) and the
#: skip-dominated one (skip planner, set-up): a slowdown in either
#: layer moves one of them.
WORKLOADS = ("rat-mem4", "stall-mem2")
#: 6 pairs at 1 s are 3 cells per run and ~30 s per pair (rat-mem4 ~10 s
#: a run, stall-mem2 ~4.5 s): one gate run took 190-204 s on a 2-vCPU
#: container with Python 3.11.7.  Two gate runs of a tree against
#: itself read median ratios of 1.117 and 0.991 (rat-mem4), 0.993 and
#: 0.996 (stall-mem2).
PAIRS = 6
SECONDS = 1
#: The floor, 0.85, sits below all 24 per-pair ratios of those two runs
#: (lowest 0.868), so a false failure needs most pairs of a run to read
#: low.  At 10%, a median that read 0.950 on identical trees would sit
#: one noisy pair away from failing.  A ~1.3x slowdown per fetched
#: instruction read a rat-mem4 median of 0.774 (0.722-0.865) and failed.
TOLERANCE = 0.15


def run_side(root: str, side: str, workload: str, seed: int,
             run_order: int) -> Dict:
    """One perfbench run in checkout ``root``, as a result row."""
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS)]
    completed = subprocess.run(command, cwd=root, capture_output=True,
                               text=True, timeout=900)
    row = {"side": side, "seed": seed, "workload": workload,
           "run_order": run_order, "exit": completed.returncode,
           "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return row
    row.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={name: entry["value"]
                        for name, entry in result["metrics"].items()})
    return row


def measure(base_root: str) -> List[Dict]:
    """Every pair's runs, the side that runs first alternating."""
    roots = {"parent": base_root, "change": ROOT}
    rows = []
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in WORKLOADS:
            for run_order, side in enumerate(order):
                row = run_side(roots[side], side, workload, seed, run_order)
                print(f"pair {seed}/{PAIRS} {workload} {side}: "
                      f"{row['metrics'].get(METRIC, 0.0):.2f} kinst/s "
                      f"(exit {row['exit']})", file=sys.stderr, flush=True)
                rows.append(row)
    return rows


def pairs(rows: Sequence[Dict]) -> List[Tuple[Tuple[str, int], Dict]]:
    """``((workload, seed), {side: row})`` in pair order."""
    grouped: Dict[Tuple[str, int], Dict] = {}
    for row in rows:
        grouped.setdefault((row["workload"], row["seed"]),
                           {})[row["side"]] = row
    return sorted(grouped.items(), key=lambda item: item[0][::-1])


def _passed(row: Dict) -> bool:
    return row["exit"] == 0 and row["correct"] is True


def verdict(rows: Sequence[Dict]) -> Tuple[int, List[str]]:
    """Exit status (0 pass, 1 fail, 2 error) and its reasons."""
    errors: List[str] = []
    failures: List[str] = []
    ratios: Dict[str, List[float]] = {}
    for (workload, seed), sides in pairs(rows):
        parent, change = sides["parent"], sides["change"]
        if not _passed(parent):
            errors.append(f"{workload} seed {seed}: the parent run failed "
                          f"(exit {parent['exit']}, correct "
                          f"{parent['correct']}); nothing to compare with")
        elif not _passed(change):
            failures.append(f"{workload} seed {seed}: the change run "
                            f"failed (exit {change['exit']}, correct "
                            f"{change['correct']})")
        elif change["failed"] > parent["failed"]:
            failures.append(f"{workload} seed {seed}: the change failed "
                            f"{change['failed']} of {change['attempted']} "
                            f"operations, the parent {parent['failed']}")
        else:
            ratios.setdefault(workload, []).append(
                change["metrics"][METRIC] / parent["metrics"][METRIC])
    if errors:
        return 2, errors
    floor = 1.0 - TOLERANCE
    summary = []
    for workload, values in sorted(ratios.items()):
        median = statistics.median(values)
        line = (f"{workload}: median {METRIC} ratio {median:.3f} over "
                f"{len(values)} pairs (range {min(values):.3f}-"
                f"{max(values):.3f}, floor {floor:.2f})")
        if median < floor:
            failures.append(line)
        else:
            summary.append(line)
    if failures:
        return 1, failures
    return 0, summary


def table(rows: Sequence[Dict]) -> List[str]:
    """The per-pair ``sim_kips`` table."""
    lines = [f"{'pair':>4}  {'workload':<10}  {'first':<6}  "
             f"{'parent':>8}  {'change':>8}  {'ratio':>6}"]
    for (workload, seed), sides in pairs(rows):
        first = min(sides.values(), key=lambda row: row["run_order"])
        kips = [sides[side]["metrics"].get(METRIC, 0.0)
                for side in ("parent", "change")]
        ratio = f"{kips[1] / kips[0]:6.3f}" if kips[0] else f"{'-':>6}"
        lines.append(f"{seed:>4}  {workload:<10}  {first['side']:<6}  "
                     f"{kips[0]:8.2f}  {kips[1]:8.2f}  {ratio}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf_gate.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the revision to compare against, "
                                     "e.g. HEAD^1")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    worktree = os.path.join(scratch, "base")
    try:
        added = subprocess.run(["git", "worktree", "add", "--detach",
                                worktree, args.base], cwd=ROOT,
                               capture_output=True, text=True)
        if added.returncode != 0:
            print(f"perf_gate: cannot check out {args.base}: "
                  f"{added.stderr.strip()}", file=sys.stderr)
            return 2
        rows = measure(worktree)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print("\n".join(table(rows)))
    status, reasons = verdict(rows)
    print(("PASS", "FAIL", "ERROR")[status])
    for reason in reasons:
        print(f"  {reason}")
    print(f"[wrote {OUTPUT}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
