"""Rule ``hot-path-hygiene``: keep the fast paths fast.

The simulator core's speed rests on a specific discipline inside the
per-instruction hot code: no raise-and-catch control flow (``try``
bodies cost a setup per entry and an exception per miss), no
per-iteration closure allocation, and no attribute chain resolved twice
in the same loop when a local would do.  Nothing else enforces that
discipline — a well-meaning edit could quietly hand back the win.  This
rule pins it for every derived kernel (one per coverage class) and for
the out-of-line functions on the :data:`HOT_FUNCTIONS` list (extend the
list when a new fast path lands):

* a ``try`` statement anywhere in a hot function;
* a ``lambda``/nested ``def`` inside one of its loops (a fresh function
  object per iteration);
* the same >=2-hop attribute chain (``self.mem.data_access_packed``)
  loaded more than once inside one loop — hoist it to a local before
  the loop, as every surrounding fast path already does.

The rule is a guard for *listed* functions only: code off the hot list
may trade these points for readability freely.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple

from ..core.kernel_gen import DerivationError, KernelKey, kernel_source
from .astutil import dotted, iter_functions
from .model import Finding, LintContext
from .registry import Rule, rule

KERNEL_GEN = "core/kernel_gen.py"

#: The derived-kernel coverage classes: the key facts that gate whole
#: regions of derived code (runahead on/off, hook presence, skipping,
#: power-of-two vs modulo thread rotation, the single-thread shape).
_FULL = KernelKey(num_threads=4, width=8, fetch_threads=2, fetch_buffer=16,
                  icache_latency=3, dcache_latency=2, l2_detect_latency=9,
                  rob_capacity=96, iq_caps=(48, 40, 24), fu_caps=(6, 5, 4),
                  uses_runahead=True, ra_fp_inval=True, has_on_cycle=True,
                  skip_enabled=True)
COVERAGE_CLASSES: Tuple[Tuple[str, KernelKey], ...] = (
    ("full", _FULL),
    ("no-fp-inval-3t", _FULL._replace(num_threads=3, ra_fp_inval=False,
                                      has_on_cycle=False)),
    ("no-runahead", _FULL._replace(num_threads=2, uses_runahead=False,
                                   ra_fp_inval=False)),
    ("minimal", _FULL._replace(num_threads=1, uses_runahead=False,
                               ra_fp_inval=False, has_on_cycle=False,
                               skip_enabled=False)),
)

#: The guarded fast paths: (module relpath, dotted qualname).  These are
#: the out-of-line per-instruction/per-cycle workhorses the derived
#: kernels call.  The python tier's stage methods are not listed: they
#: are the readable reference, and their fast form is the derived kernel,
#: which is checked per coverage class (see generated_kernels).
HOT_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("core/pipeline.py", "SMTPipeline._skip_target"),
    ("core/issue_queue.py", "IssueQueue.take_ready"),
    ("core/issue_queue.py", "IssueQueue.next_ready_cycle"),
    ("mem/cache.py", "Cache.lookup"),
    ("mem/hierarchy.py", "MemoryHierarchy.data_access_packed"),
    ("mem/mshr.py", "MSHRFile.expire"),
    ("branch/perceptron.py", "PerceptronPredictor.predict"),
    ("sim/fame.py", "fame_run"),
    # The per-instruction trace walk every cell's set-up pays.
    ("trace/generator.py", "TraceGenerator.generate"),
    # The kernel-tier entry points: the portable FAME loop and the
    # kernel resolution path (the derived loops themselves are checked
    # per coverage class, see generated_kernels).
    ("sim/kernels.py", "python_run_loop"),
    ("sim/kernels.py", "resolve_run_loop"),
    ("core/kernel_cache.py", "specialized_run_loop"),
)

#: Minimum attribute hops for the re-resolution check: ``obj.attr`` is
#: one lookup a local rarely beats; ``obj.attr.attr`` re-walks two
#: dictionaries per resolution.
_MIN_HOPS = 2


def _chain_hops(node: ast.Attribute) -> int:
    hops = 0
    while isinstance(node, ast.Attribute):
        hops += 1
        node = node.value
    return hops if isinstance(node, ast.Name) else 0


class _LoopChains(ast.NodeVisitor):
    """Collect loaded attribute-chain spellings per loop subtree."""

    def __init__(self) -> None:
        self.loops: List[Tuple[ast.AST, Dict[str, List[int]]]] = []
        self.closures: List[ast.AST] = []
        self._stack: List[Dict[str, List[int]]] = []

    def _enter_loop(self, node: ast.AST) -> None:
        chains: Dict[str, List[int]] = {}
        self.loops.append((node, chains))
        self._stack.append(chains)
        self.generic_visit(node)
        self._stack.pop()

    visit_For = visit_While = _enter_loop

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._stack and isinstance(node.ctx, ast.Load) \
                and _chain_hops(node) >= _MIN_HOPS:
            spelling = dotted(node)
            if spelling is not None:
                for chains in self._stack:
                    chains.setdefault(spelling, []).append(node.lineno)
                # Only the outermost chain counts; inner Attribute
                # nodes are part of this spelling, not new loads.
                return
        self.generic_visit(node)

    def _enter_closure(self, node: ast.AST) -> None:
        if self._stack:
            self.closures.append(node)
        # Still walk the body: chains inside a closure inside a loop
        # are that closure's problem, not the loop's — skip them.

    visit_Lambda = _enter_closure
    visit_FunctionDef = _enter_closure
    visit_AsyncFunctionDef = _enter_closure


def generated_kernels(ctx: LintContext):
    """One ``(label, key, source)`` per coverage class, derived from the
    linted tree's sources (memoized on the context)."""
    cached = getattr(ctx, "_derived_kernels", None)
    if cached is None:
        cached = ctx._derived_kernels = [
            (label, key, kernel_source(key, ctx.root))
            for label, key in COVERAGE_CLASSES]
    return cached


def check_function(rule_name: str, relpath: str, qualname: str,
                   node: ast.AST) -> List[Finding]:
    """The three hygiene checks over one function body.

    Module-level so the same discipline can be applied to code that is
    not a file of the linted tree — the generated kernels are checked
    with ``relpath=core/kernel_gen.py`` and a ``generated kernel [...]``
    qualname (their line numbers are generated-source lines, quoted in
    the message rather than the anchor).
    """
    findings: List[Finding] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Try) and child is not node:
            findings.append(Finding(
                rule=rule_name, path=relpath, line=child.lineno,
                message=(f"try block inside hot function "
                         f"{qualname!r} — the fast paths are "
                         "exception-free by design (PR 3/4); "
                         "restructure with a membership/size test")))
    collector = _LoopChains()
    for stmt in node.body:
        collector.visit(stmt)
    for closure in collector.closures:
        label = getattr(closure, "name", "<lambda>")
        findings.append(Finding(
            rule=rule_name, path=relpath, line=closure.lineno,
            message=(f"closure {label!r} allocated inside a loop of "
                     f"hot function {qualname!r} — a fresh function "
                     "object per iteration; hoist it out of the "
                     "loop")))
    reported = set()
    for loop, chains in collector.loops:
        # "Hoist it to a local before the loop" is only actionable when
        # the chain's base is loop-invariant.  A base assigned inside
        # the loop (the iteration variable, or a per-item rebinding like
        # `file = int_file if ... else fp_file`) names a different
        # object each time — the repeated spelling is one resolution
        # per binding, not a redundant re-walk.
        rebound = {child.id for child in ast.walk(loop)
                   if isinstance(child, ast.Name)
                   and isinstance(child.ctx, (ast.Store, ast.Del))}
        for spelling in sorted(chains):
            if spelling.split(".", 1)[0] in rebound:
                continue
            lines = chains[spelling]
            if len(lines) >= 2 and spelling not in reported:
                reported.add(spelling)
                findings.append(Finding(
                    rule=rule_name, path=relpath, line=lines[0],
                    message=(f"attribute chain {spelling!r} "
                             f"resolved {len(lines)}x inside one "
                             f"loop of hot function {qualname!r} "
                             "(lines "
                             f"{', '.join(map(str, lines))}) — "
                             "hoist it to a local before the "
                             "loop")))
    return findings


@rule
class HotPathRule(Rule):
    name = "hot-path-hygiene"
    description = ("hot-listed fast paths may not contain try blocks, "
                   "per-iteration closures, or re-resolved attribute "
                   "chains in their loops")

    def run(self, ctx: LintContext) -> List[Finding]:
        hot_list = ctx.options.hot_list
        if hot_list is None:
            hot_list = HOT_FUNCTIONS
        findings: List[Finding] = []
        by_file: Dict[str, List[str]] = {}
        for relpath, qualname in hot_list:
            by_file.setdefault(relpath, []).append(qualname)
        for relpath in sorted(by_file):
            source = ctx.file(relpath)
            if source is None:
                findings.append(Finding(
                    rule=self.name, path=relpath, line=1,
                    message=(f"hot-list module {relpath!r} not found — "
                             "update analysis/hotpath.py HOT_FUNCTIONS "
                             "when moving a fast path")))
                continue
            functions = dict(iter_functions(source.tree))
            for qualname in sorted(by_file[relpath]):
                node = functions.get(qualname)
                if node is None:
                    findings.append(Finding(
                        rule=self.name, path=relpath, line=1,
                        message=(f"hot-list function {qualname!r} not "
                                 f"found in {relpath} — update "
                                 "analysis/hotpath.py HOT_FUNCTIONS "
                                 "when renaming a fast path")))
                    continue
                findings.extend(
                    check_function(self.name, source.relpath, qualname,
                                   node))
        findings.extend(self._check_kernels(ctx))
        return findings

    def _check_kernels(self, ctx: LintContext) -> List[Finding]:
        """The derived kernels are hot paths too — feed each coverage
        class's source through the same three checks, so a declared op
        that would derive a sloppy loop fails here even though the
        sloppy code never exists as a file.  A derivation error (a
        source edit that broke a declared op) is a finding too."""
        if ctx.file(KERNEL_GEN) is None:
            return []
        try:
            kernels = generated_kernels(ctx)
        except DerivationError as exc:
            return [Finding(rule=self.name, path=KERNEL_GEN, line=1,
                            message=str(exc))]
        ctx.kernel_classes = [label for label, _key, _source in kernels]
        findings: List[Finding] = []
        for label, _key, source in kernels:
            tree = ast.parse(source)
            for qualname, node in iter_functions(tree):
                findings.extend(check_function(
                    self.name, KERNEL_GEN,
                    f"generated kernel [{label}] {qualname}", node))
        return findings
