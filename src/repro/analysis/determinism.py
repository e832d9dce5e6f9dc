"""Rule ``determinism-hazard``: no ambient nondeterminism in the model.

The simulator's whole caching/sharding/golden-digest regime rests on one
property: a cell's :class:`~repro.core.processor.SimResult` is a pure
function of its content-addressed key.  Anything that lets ambient
process state leak into simulation — wall-clock reads, the global
``random`` state, CPython object identities, filesystem enumeration
order, undeclared environment reads — breaks that silently: results
still *look* right, they just stop being reproducible, and a shared
store starts serving answers no key can explain.

The rule scans the simulation-semantics packages (``core/``, ``mem/``,
``trace/``, ``policies/``, ``sim/``) for:

* **wall-clock / entropy reads** — ``time.time()`` & friends,
  ``datetime.now()``, ``os.urandom``, ``uuid.uuid4``, ``secrets``;
* **global random state** — any ``random.*`` module-level call (seeded
  ``random.Random(seed)`` instances are fine);
* **object identity** — ``id()`` and builtin ``hash()`` calls (both
  vary per process: addresses and ``PYTHONHASHSEED``);
* **unsorted directory listings** — ``os.listdir``/``os.scandir`` calls
  not directly wrapped in ``sorted(...)``;
* **environment reads** — ``os.environ`` / ``os.getenv`` outside the
  declared config entry points (:data:`ENVIRON_ENTRY_POINTS`).

Genuinely wall-clock operations (age-based cache pruning) carry a
per-line ``# lint: disable=<rule>`` suppression at the call site (see
:mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from .astutil import ImportMap, parent_map
from .model import Finding, LintContext, SourceFile
from .registry import Rule, rule

#: Package prefixes the rule applies to (simulation semantics only;
#: the CLI and experiment renderers may read clocks freely).
SCOPE_PREFIXES = ("core/", "mem/", "trace/", "policies/", "sim/")

#: Module relpaths allowed to read ``os.environ``/``os.getenv`` — the
#: declared configuration entry points.  ``sim/runner.py`` owns the
#: ``REPRO_FULL`` run-spec default; everything else must take
#: configuration as arguments (``repro/config.py`` lives outside the
#: scanned scope and stays the home for new knobs).
ENVIRON_ENTRY_POINTS = ("sim/runner.py",)

#: Callables whose result depends on when/where the process runs.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: ``random`` attributes that construct independent (seedable) streams.
_RANDOM_SEEDABLE = frozenset({"Random"})


@rule
class DeterminismRule(Rule):
    name = "determinism-hazard"
    description = ("no wall-clock, global-random, id()/hash(), unsorted "
                   "listdir, or undeclared environ reads in the "
                   "simulation packages")

    def run(self, ctx: LintContext) -> List[Finding]:
        entry_points = ctx.options.environ_entry_points
        if entry_points is None:
            entry_points = ENVIRON_ENTRY_POINTS
        findings: List[Finding] = []
        for source in ctx.files():
            if not source.relpath.startswith(SCOPE_PREFIXES):
                continue
            findings.extend(self._scan(source, entry_points))
        return findings

    def _scan(self, source: SourceFile,
              entry_points: Sequence[str]) -> List[Finding]:
        tree = source.tree
        imports = ImportMap(tree)
        parents = parent_map(tree)
        findings: List[Finding] = []

        def report(node: ast.AST, message: str) -> None:
            findings.append(Finding(rule=self.name, path=source.relpath,
                                    line=node.lineno, message=message))

        allowed_environ = source.relpath in entry_points
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = imports.resolve(node.func)
                if target is not None:
                    self._check_call(node, target, parents, report,
                                     allowed_environ, entry_points)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                # Exactly one node per ``os.environ`` occurrence
                # resolves to the bare spelling (the ``.get``/subscript
                # wrappers resolve longer), so this reports each read
                # once, whatever form it takes.
                if not allowed_environ \
                        and imports.resolve(node) == "os.environ":
                    report(node,
                           "os.environ read outside the declared "
                           "config entry points "
                           f"({', '.join(entry_points)}) — ambient "
                           "environment must not steer simulation "
                           "semantics; thread it through "
                           "SMTConfig/RunSpec instead")
        return findings

    def _check_call(self, node: ast.Call, target: str, parents,
                    report, allowed_environ: bool,
                    entry_points: Sequence[str]) -> None:
        if target in _CLOCK_CALLS:
            report(node, f"{target}() reads ambient process state — a "
                         "simulation input must come from the cell key "
                         "(config/spec/workload), never the clock")
            return
        root, _, attr = target.partition(".")
        if root == "random" and attr and "." not in attr:
            if attr not in _RANDOM_SEEDABLE:
                report(node, f"random.{attr}() draws from the global "
                             "random state — use a seeded generator "
                             "(repro.trace.rng.Rng) carried by the "
                             "trace spec")
            return
        if root == "secrets":
            report(node, f"{target}() is an entropy source — "
                         "simulation inputs must be derived from the "
                         "cell key")
            return
        if target in ("id", "hash"):
            report(node, f"builtin {target}() varies per process "
                         "(object addresses / PYTHONHASHSEED) — results "
                         "derived from it are not reproducible; key on "
                         "stable fields instead")
            return
        if target in ("os.listdir", "os.scandir"):
            parent = parents.get(node)
            wrapped = (isinstance(parent, ast.Call)
                       and isinstance(parent.func, ast.Name)
                       and parent.func.id == "sorted")
            if not wrapped:
                report(node, f"{target}() order is "
                             "filesystem-dependent — wrap the call in "
                             "sorted(...) so every walk and report is "
                             "deterministic")
            return
        if target == "os.getenv" and not allowed_environ:
            report(node, "os.getenv read outside the declared config "
                         f"entry points ({', '.join(entry_points)}) — "
                         "thread configuration through SMTConfig/"
                         "RunSpec instead")
