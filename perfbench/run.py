"""The repository benchmark: one workload per process, metrics as JSON.

Run from the root of a checkout (pure Python; nothing to build)::

    python3 perfbench/run.py --workload rat-mem4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30        # every workload
    python3 perfbench/run.py --workload rat-mem4 --seed 1 --seconds 30 --record-pins
    python3 perfbench/selftest.py                              # the benchmark's own tests

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split (see ``metrics.py`` for every metric, ``workloads.py`` for the
workloads and why each was chosen).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Everything before it is for people: one line per checked operation
(with its digest, so two revisions can be diffed), the provenance stamp,
each metric by name with its unit, and ``failed_share``.  A full report
(and, for traced runs, the spans) is written to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>.json``.  A run whose
result line says ``"correct": false`` exits 1.

The run refuses to start (exit 2) when the package source is missing or
when one of ``REPRO_KERNEL``, ``REPRO_SPECULATE``, ``REPRO_FULL`` or
``REPRO_BENCH_WORKLOADS`` is set: defaults are what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("rat-mem4", "stall-mem2", "campaign")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in its own process, "
                            "and print a summary table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="sizes the run (cells per run), default 30")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"),
                        default="standard",
                        help="tiny: the self-test sizes")
    parser.add_argument("--record-pins", action="store_true",
                        help="store this run's digests as the pins for "
                             "its seed (untraced runs only)")
    return parser


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; metrics by name with units."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exit {completed.returncode}\n{completed.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<28} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
        print(f"{name:<11} {'failed_share':<28} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path[0] = ROOT
    sys.path.insert(0, SRC)
    from perfbench import checks
    knobs = checks.set_knobs()
    if knobs:
        print(f"perfbench: unset {', '.join(knobs)}: the benchmark measures "
              f"the defaults", file=sys.stderr)
        return 2
    if args.record_pins and args.trace:
        print("perfbench: --record-pins needs --trace 0", file=sys.stderr)
        return 2
    from perfbench import metrics, workloads

    table = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
    workload = table[args.workload]
    pins = checks.Pins(data={}) if args.record_pins else checks.Pins()
    report = workloads.measure(workload, args.seed, args.seconds,
                               bool(args.trace), pins, ROOT)
    outcome = report["outcome"]
    mismatches = report.get("mismatches", [])
    nesting = report.get("trace", {}).get("nesting_violations", 0)
    for line in outcome.lines:
        print(line)
    for failure in outcome.failures + mismatches:
        print(f"FAILED {failure}")
    if nesting:
        print(f"FAILED {nesting} spans not nested inside their parent")
    for name, reason in sorted(report.get("dropped", {}).items()):
        print(f"dropped {name}: {reason}")
    stamp = checks.provenance(ROOT, args.seed, report["tiers"])
    print("provenance " + json.dumps(stamp, sort_keys=True))

    correct = not outcome.failures and not mismatches and not nesting
    if args.record_pins:
        if not correct:
            print("perfbench: not recording pins from a failing run",
                  file=sys.stderr)
            return 1
        stored = checks.Pins()
        for seed, value in outcome.digests.items():
            stored.put(workload.pin_key, int(seed), value)
        stored.save()
        print(f"pinned {len(outcome.digests)} seeds under "
              f"{workload.pin_key}")

    table_metrics = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = report["values"]
    if not values:   # nothing measured: every operation failed
        correct = False
        values = {metric.name: 0.0 for metric in table_metrics}
    emitted = metrics.emit(values, table_metrics)
    for name, entry in emitted.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    attempted = max(1, outcome.attempted)
    print(f"metric {metrics.FAILED_SHARE.name} "
          f"{outcome.failed / attempted:.6g} {metrics.FAILED_SHARE.unit} "
          f"({outcome.failed} of {outcome.attempted} operations)")

    path = os.path.join(workloads.out_dir(ROOT),
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "size": args.size,
                   "seconds": args.seconds, "provenance": stamp,
                   "metrics": emitted, "attempted": outcome.attempted,
                   "failures": outcome.failures, "mismatches": mismatches,
                   "digests": outcome.digests, "tiers": outcome.tiers,
                   "dropped": report.get("dropped", {}),
                   "trace": report.get("trace")}, handle, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": outcome.failed, "metrics": emitted}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
