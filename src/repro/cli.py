"""Command-line interface: regenerate any table or figure.

Examples::

    python -m repro table1
    python -m repro figure1 --workloads-per-class 3 --trace-len 2000
    python -m repro all --jobs 0 --cache-dir ~/.cache/repro-smt
    python -m repro all --format json --output results/
    repro-smt figure6 --classes MEM2 MEM4 --format csv
    repro-smt plan all --workloads-per-class 1 > manifest.json
    repro-smt all --shard 1/3 --cache-dir /shared/cache   # machine 1
    repro-smt all --shard 2/3 --cache-dir /shared/cache   # machine 2
    repro-smt all --shard 3/3 --cache-dir /shared/cache   # machine 3
    repro-smt all --cache-dir /shared/cache               # assemble union
    repro-smt cache stats --cache-dir ~/.cache/repro-smt
    repro-smt cache prune --cache-dir ~/.cache/repro-smt --stale-salts
    repro-smt lint --format json
    repro-smt lint --accept-fingerprints

Besides the exhibit names, three maintenance subcommands exist:
``plan`` emits a campaign's JSON manifest without running anything (see
:mod:`repro.sim.manifest`), ``cache`` inspects or prunes a
``--cache-dir`` result store (see :mod:`repro.sim.store`), and ``lint``
statically checks the package's reproducibility invariants (see
:mod:`repro.analysis`).

However many exhibits are requested, their planned simulation cells are
unioned into **one** deduplicated batch (costliest cells first), so
``repro all --jobs N`` fills the worker pool exactly once and shared
cells are simulated a single time.  ``--jobs N`` fans cells out over N
workers of the chosen ``--backend`` (``process`` pools by default;
``thread`` avoids pickling — see the GIL caveat in
:mod:`repro.sim.executors`); ``--cache-dir PATH`` persists every result
on disk so a repeated (or extended) campaign only simulates what it has
never measured before, and additionally caches each exhibit's rendered
output keyed by its planned cell set, so untouched figures skip even
assembly.  ``--shard K/N`` turns the invocation into the execute-only
stage of a distributed campaign: it simulates only the deterministic
K-of-N slice of the batch into the shared store and renders nothing —
run every shard (any machines, any order), then assemble with a final
unsharded invocation.  Results are bit-identical whichever backend,
shard split or cache served them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from .config import KERNEL_ENV_VAR, baseline
from .errors import ManifestError
from .experiments import Campaign, ExhibitContext, exhibit_names
from .experiments.common import RENDER_FORMATS
from .experiments.report import manifest_summary
from .sim.engine import (ProcessPoolBackend, SerialBackend, SimEngine,
                         set_engine)
from .sim.executors import ShardSpec, ShardedExecutor, get_executor
from .sim.runner import RunSpec, default_spec
from .sim.store import (EXHIBIT_DIR, DiskStore, ExhibitRenderCache,
                        MemoryStore)
from .trace.workloads import WORKLOAD_CLASSES

#: File extension per --format value.
FORMAT_EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}

#: Executors selectable via --backend ('sharded' wraps these, via --shard).
BACKEND_CHOICES = ("serial", "process", "thread")


def _jobs(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError("--jobs must be >= 0")
    return jobs


def _shard(value: str) -> ShardSpec:
    try:
        return ShardSpec.parse(value)
    except ManifestError as error:
        raise argparse.ArgumentTypeError(str(error))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smt",
        description="Reproduce 'Runahead Threads to Improve SMT "
                    "Performance' (HPCA 2008): regenerate its tables "
                    "and figures on the bundled simulator.",
        epilog="Maintenance subcommands: 'repro-smt plan --help' "
               "(emit a campaign's JSON manifest), 'repro-smt "
               "cache --help' (result-store stats / pruning), "
               "'repro-smt lint --help' (static reproducibility "
               "checks).")
    parser.add_argument("exhibit",
                        choices=sorted(exhibit_names()) + ["all"],
                        help="which exhibit to regenerate ('all' plans "
                             "every exhibit and simulates their union "
                             "as one deduplicated batch)")
    parser.add_argument("--trace-len", type=int, default=None,
                        help="instructions per thread trace "
                             "(default: RunSpec default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace generation seed")
    parser.add_argument("--workloads-per-class", type=int, default=None,
                        help="cap workloads per class for a quick look "
                             "(default: full Table 2)")
    parser.add_argument("--classes", nargs="+", default=None,
                        choices=list(WORKLOAD_CLASSES),
                        help="restrict to specific workload classes")
    parser.add_argument("--jobs", "-j", type=_jobs, default=1,
                        help="workers for independent simulation cells "
                             "(default: 1 = serial; 0 = auto-detect, "
                             "one per CPU core; results are identical "
                             "either way)")
    parser.add_argument("--backend", choices=BACKEND_CHOICES,
                        default=None,
                        help="executor running the cells: 'process' "
                             "(worker processes, the --jobs default), "
                             "'thread' (no pickling/spawn; see the GIL "
                             "caveat in repro.sim.executors), or "
                             "'serial' (default: serial when --jobs is "
                             "1, process otherwise)")
    parser.add_argument("--shard", type=_shard, default=None,
                        metavar="K/N",
                        help="execute-only: simulate the deterministic "
                             "K-of-N slice of the campaign into the "
                             "shared --cache-dir (required) and render "
                             "nothing; run all N shards, then assemble "
                             "with a final unsharded invocation")
    parser.add_argument("--cache-dir", default=None,
                        help="directory persisting simulation results "
                             "and rendered exhibits across invocations "
                             "(content-addressed; safe to share between "
                             "concurrent runs, including --shard "
                             "executors)")
    parser.add_argument("--format", choices=RENDER_FORMATS,
                        default="text", dest="format",
                        help="output rendering: 'text' (the paper's "
                             "ASCII tables), machine-readable 'json', "
                             "or 'csv' (default: text)")
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="also write each exhibit to "
                             "DIR/<exhibit>.<ext> in the chosen format")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress per-cell progress output")
    parser.add_argument("--kernel", choices=("auto", "python"),
                        default=None,
                        help="run-loop tier driving each cell: 'auto' "
                             "(default; the config-folded specialized "
                             "kernel where the machine shape is covered, "
                             "the portable loop elsewhere) or 'python' "
                             "(portable loop always). Sets REPRO_KERNEL "
                             "for this invocation, workers included; "
                             "results are bit-identical in every tier")
    return parser


def _apply_kernel(args: argparse.Namespace) -> None:
    """Propagate --kernel through the ``REPRO_KERNEL`` environment knob.

    The switch is an env var rather than an SMTConfig field (see
    :func:`repro.config.kernel_mode`), so exporting it here covers the
    in-process engine and every spawned --jobs worker alike.
    """
    if getattr(args, "kernel", None):
        os.environ[KERNEL_ENV_VAR] = args.kernel


def make_spec(args: argparse.Namespace) -> RunSpec:
    spec = default_spec()
    overrides = {}
    if args.trace_len is not None:
        overrides["trace_len"] = args.trace_len
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def make_engine(args: argparse.Namespace) -> SimEngine:
    """Build the engine the whole invocation runs on.

    The backend comes from the executor registry: an explicit
    ``--backend``, else ``serial``/``process`` picked from ``--jobs``.
    A ``--shard K/N`` wraps the chosen executor in a
    :class:`~repro.sim.executors.ShardedExecutor`.
    """
    name = args.backend
    if name is None:
        name = "serial" if args.jobs == 1 else "process"
    backend = get_executor(name, args.jobs if args.jobs > 0 else None)
    shard = getattr(args, "shard", None)
    if shard is not None:
        backend = ShardedExecutor(shard, backend)
    if args.cache_dir:
        store = DiskStore(args.cache_dir)
    else:
        store = MemoryStore()
    return SimEngine(backend=backend, store=store)


def make_render_cache(args: argparse.Namespace
                      ) -> Optional[ExhibitRenderCache]:
    """The exhibit-render cache living inside ``--cache-dir``, if any."""
    if not args.cache_dir:
        return None
    return ExhibitRenderCache(os.path.join(args.cache_dir, EXHIBIT_DIR))


class ProgressPrinter:
    """Per-cell campaign progress on stderr.

    This is the single sink of the engine's progress callback — every
    backend (serial, process, thread, sharded) reports through
    ``SimEngine``'s ``(done, total, cached)`` callback, so the rendering
    is uniform however the cells execute.  The line always carries the
    campaign-level totals, and a sharded invocation adds its slice:
    ``[campaign] cell 12/32 (shard 2/4 of 96-cell campaign, ...)``.

    On a terminal the line updates in place; otherwise milestones are
    printed one per line (start, every ~10%, and completion), so CI logs
    stay readable.
    """

    def __init__(self, name: str, stream=None,
                 shard: Optional[ShardSpec] = None,
                 campaign_cells: Optional[int] = None) -> None:
        self.name = name
        self.stream = stream if stream is not None else sys.stderr
        self.shard = shard
        self.campaign_cells = campaign_cells
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_milestone = -1
        self._last_width = 0
        self._wrote = False

    def __call__(self, done: int, total: int, cached: int) -> None:
        running = total - done
        context = ""
        if self.shard is not None:
            campaign = (f" of {self.campaign_cells}-cell campaign"
                        if self.campaign_cells is not None else "")
            context = f"shard {self.shard}{campaign}, "
        line = (f"[{self.name}] cell {done}/{total} "
                f"({context}{cached} cached, {done - cached} simulated, "
                f"{running} running)")
        if self._tty:
            # Pad to the previous line's width so shrinking fields
            # (e.g. "100 running" -> "99 running") leave no residue.
            padded = line.ljust(self._last_width)
            self._last_width = len(line)
            self.stream.write("\r" + padded)
            self.stream.flush()
            self._wrote = True
        else:
            milestone = (10 * done) // total if total else 10
            if milestone != self._last_milestone or done == total:
                self._last_milestone = milestone
                print(line, file=self.stream, flush=True)

    def finish(self) -> None:
        if self._tty and self._wrote:
            self.stream.write("\n")
            self.stream.flush()


def _write_output(directory: str, name: str, fmt: str, text: str,
                  status) -> None:
    path = os.path.join(directory, f"{name}.{FORMAT_EXTENSIONS[fmt]}")
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print(f"[wrote {path}]", file=status)


def build_plan_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smt plan",
        description="Emit a campaign's JSON manifest — the serializable "
                    "plan of every content-addressed simulation cell "
                    "the requested exhibits derive from — without "
                    "executing anything.  The manifest round-trips "
                    "through repro.sim.manifest.CampaignManifest and "
                    "is what --shard K/N invocations split.")
    parser.add_argument("exhibit",
                        choices=sorted(exhibit_names()) + ["all"],
                        help="which exhibit(s) to plan")
    parser.add_argument("--trace-len", type=int, default=None,
                        help="instructions per thread trace")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace generation seed")
    parser.add_argument("--workloads-per-class", type=int, default=None,
                        help="cap workloads per class")
    parser.add_argument("--classes", nargs="+", default=None,
                        choices=list(WORKLOAD_CLASSES),
                        help="restrict to specific workload classes")
    parser.add_argument("--shard", type=_shard, default=None,
                        metavar="K/N",
                        help="emit only the deterministic K-of-N slice "
                             "of the manifest")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the manifest to PATH instead of "
                             "stdout")
    return parser


def plan_main(argv: List[str]) -> int:
    args = build_plan_parser().parse_args(argv)
    names = (sorted(exhibit_names()) if args.exhibit == "all"
             else [args.exhibit])
    ctx = ExhibitContext.make(baseline(), make_spec(args), args.classes,
                              args.workloads_per_class)
    manifest = Campaign(names, ctx=ctx, engine=SimEngine()).plan()
    if args.shard is not None:
        manifest = manifest.filter_shard(args.shard)
    print(manifest_summary(manifest), file=sys.stderr)
    text = manifest.to_json()
    if args.output:
        directory = os.path.dirname(args.output)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[wrote {args.output}]", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smt cache",
        description="Inspect or prune a --cache-dir result store.")
    parser.add_argument("action", choices=("stats", "prune"),
                        help="'stats' summarizes entries per code-version "
                             "salt; 'prune' deletes stale entries")
    parser.add_argument("--cache-dir", required=True,
                        help="the store directory to operate on")
    parser.add_argument("--stale-salts", action="store_true",
                        help="prune: drop entries from other code-version "
                             "salts (incl. corrupt payloads)")
    parser.add_argument("--older-than-days", type=float, default=None,
                        metavar="DAYS",
                        help="prune: drop entries older than DAYS")
    parser.add_argument("--dry-run", action="store_true",
                        help="prune: report what would be removed only")
    return parser


def cache_main(argv: List[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    if not os.path.isdir(args.cache_dir):
        print(f"repro-smt cache: no such cache directory: "
              f"{args.cache_dir}", file=sys.stderr)
        return 2
    store = DiskStore(args.cache_dir)
    # The exhibit-render pool lives beside the result fan-out; operate
    # on it only when it exists so stats/prune never create it.
    exhibit_root = os.path.join(args.cache_dir, EXHIBIT_DIR)
    render_cache = (ExhibitRenderCache(exhibit_root)
                    if os.path.isdir(exhibit_root) else None)
    if args.action == "stats":
        for label, pool in (("cache", store), ("render cache",
                                               render_cache)):
            if pool is None:
                continue
            stats = pool.stats()
            print(f"{label} {stats['root']}: {stats['entries']} entries, "
                  f"{stats['bytes'] / 1024:.1f} KiB "
                  f"(current salt: {stats['current_salt']})")
            for salt in sorted(stats["by_salt"]):
                bucket = stats["by_salt"][salt]
                marker = (" (current)"
                          if salt == stats["current_salt"] else "")
                print(f"  {salt}{marker}: {bucket['entries']} entries, "
                      f"{bucket['bytes'] / 1024:.1f} KiB")
        if render_cache is None:
            print("render cache: none")
        return 0
    if not args.stale_salts and args.older_than_days is None:
        print("repro-smt cache prune: nothing to do — pass "
              "--stale-salts and/or --older-than-days DAYS",
              file=sys.stderr)
        return 2
    verb = "would remove" if args.dry_run else "removed"
    outcome = store.prune(stale_salts=args.stale_salts,
                          older_than_days=args.older_than_days,
                          dry_run=args.dry_run)
    print(f"prune: {verb} {outcome.removed} of {outcome.examined} "
          f"entries ({outcome.bytes_freed / 1024:.1f} KiB), "
          f"kept {outcome.kept}")
    if render_cache is not None:
        rendered = render_cache.prune(
            stale_salts=args.stale_salts,
            older_than_days=args.older_than_days,
            dry_run=args.dry_run)
        print(f"prune (render cache): {verb} {rendered.removed} of "
              f"{rendered.examined} entries "
              f"({rendered.bytes_freed / 1024:.1f} KiB), "
              f"kept {rendered.kept}")
    return 0


def lint_main(argv: List[str]) -> int:
    from .analysis.cli import lint_main as run
    return run(argv)


#: Maintenance subcommands dispatched ahead of the exhibit interface.
SUBCOMMANDS = {"plan": plan_main, "cache": cache_main,
               "lint": lint_main}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    _apply_kernel(args)
    if args.shard is not None and not args.cache_dir:
        print("repro-smt: error: --shard needs a shared --cache-dir — "
              "a shard's results are only useful in a store the "
              "assembling invocation can read", file=sys.stderr)
        return 2
    spec = make_spec(args)
    config = baseline()
    try:
        engine = make_engine(args)
        cache = make_render_cache(args)
    except OSError as error:
        print(f"repro-smt: error: unusable --cache-dir "
              f"{args.cache_dir!r}: {error}", file=sys.stderr)
        return 2
    previous = set_engine(engine)
    names = (sorted(exhibit_names()) if args.exhibit == "all"
             else [args.exhibit])
    single = len(names) == 1
    fmt = args.format
    # In machine-readable formats stdout carries *only* the payload, so
    # stats and bookkeeping move to stderr.
    status = sys.stdout if fmt == "text" else sys.stderr
    try:
        ctx = ExhibitContext.make(config, spec, args.classes,
                                  args.workloads_per_class)
        campaign = Campaign(names, ctx=ctx, engine=engine)
        label = names[0] if single else "campaign"
        manifest = campaign.plan()

        if args.shard is not None:
            # Execute-only: simulate this shard's slice into the shared
            # store; a later unsharded invocation assembles the union.
            progress = None
            if not args.no_progress:
                progress = ProgressPrinter(
                    label, shard=args.shard,
                    campaign_cells=len(manifest))
            started = time.time()
            report = engine.execute_cells(manifest.cells(),
                                          progress=progress)
            if progress is not None:
                progress.finish()
            print(f"[{label} shard {args.shard}: executed "
                  f"{report.owned} of {report.planned} cells | "
                  f"simulated={report.simulated}, "
                  f"cache_hits={report.cached}, "
                  f"other_shards={report.skipped} | "
                  f"{time.time() - started:.1f}s]", file=status)
            return 0

        progress = None
        if not args.no_progress:
            progress = ProgressPrinter(label)
        started = time.time()
        before = engine.counters.snapshot()
        results, regen = campaign.regenerate(cache=cache,
                                             progress=progress)
        if progress is not None:
            progress.finish()
        batch_delta = engine.counters.since(before)
        elapsed = time.time() - started

        # Write --output files before emitting to stdout: a downstream
        # consumer closing the pipe early must not cost the files.
        if args.output:
            for name in names:
                _write_output(args.output, name, fmt,
                              results[name].render(fmt), status)

        if not single:
            print(f"[campaign: {len(names)} exhibits -> {len(manifest)} "
                  f"unique cells planned, {regen.cells_executed} in the "
                  f"batch | simulated={batch_delta.simulated}, "
                  f"cache_hits={batch_delta.store_hits}, "
                  f"reused={batch_delta.memo_hits} | "
                  f"{len(regen.assembled)} assembled, "
                  f"{len(regen.from_cache)} from render cache | "
                  f"{elapsed:.1f}s]", file=status)

        if fmt == "json" and not single:
            document = {name: results[name].to_dict() for name in names}
            print(json.dumps(document, indent=2, sort_keys=True))
        elif fmt == "csv" and not single:
            print("\n".join(results[name].render("csv")
                            for name in names), end="")
        else:
            for name in names:
                result = results[name]
                text = result.render(fmt)
                print(text, end="" if text.endswith("\n") else "\n")
                if single:
                    source = (" from render cache"
                              if name in regen.from_cache else "")
                    print(f"[{name} regenerated in {elapsed:.1f}s"
                          f"{source} | "
                          f"simulated={batch_delta.simulated}, "
                          f"cache_hits={batch_delta.store_hits}, "
                          f"reused={batch_delta.memo_hits}]", file=status)
                elif name in regen.from_cache:
                    print(f"[{name} served from the render cache]",
                          file=status)
                else:
                    print(f"[{name} assembled from the shared batch]",
                          file=status)
                if fmt == "text":
                    print()

    except BrokenPipeError:
        # Downstream consumer (head, jq -e, ...) closed stdout early;
        # that is its prerogative, not an error worth a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        set_engine(previous)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
