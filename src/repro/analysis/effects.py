"""Rule ``horizon-purity``: skip-horizon queries are side-effect free.

The cycle-skipping fast path calls ``skip_horizon`` / ``next_*_cycle``
on every quiescent cycle; the skip contract says these queries must not
mutate simulation state (a skip must be unobservable).  The rule checks
every implementation for machine mutations, with a short allowlist of
*lazy cache prunes* that are part of the queries' amortized-cost design
and provably state-transparent (:data:`BENIGN_MUTATIONS` — each entry is
documented at its definition site).

Mutation classification: writes to bare names and to containers created
fresh in the function itself (``live = []`` … ``live.append``) are
local and invisible outside; everything else — queue, heap, register
file and pipeline state, stats slots — is a machine mutation.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutil import dotted, iter_functions
from .model import Finding, LintContext
from .registry import Rule, rule

#: Methods that mutate their receiver in-place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "pop", "popleft", "clear", "extend",
    "extendleft", "remove", "add", "discard", "sort", "reverse",
    "update", "insert", "setdefault", "force", "fill", "push",
    "schedule",
})

#: Free functions that mutate their first argument in-place.
MUTATOR_FUNCTIONS = frozenset({
    "heappush", "heappop", "heapq.heappush", "heapq.heappop",
    "heap_pop",
})

#: Horizon implementations allowed one specific benign mutation each:
#: lazy prunes of already-dead cache/heap entries, part of the queries'
#: documented amortized-cost design.  Keyed by qualname; values are the
#: mutation spellings tolerated there.
BENIGN_MUTATIONS: Dict[str, Tuple[str, ...]] = {
    # Lazy prune of heap keys whose event bucket already drained
    # (core/pipeline.py _next_event_cycle docstring).
    "SMTPipeline._next_event_cycle": ("heappop",),
    # Dropping a ready list that holds only dead entries — the list is
    # semantically empty either way (core/issue_queue.py).
    "IssueQueue.next_ready_cycle": ("ready",),
}

#: The fixed structure-owned horizon queries (module, qualname); policy
#: ``skip_horizon`` implementations are discovered by name under
#: ``policies/``.
HORIZON_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("core/pipeline.py", "SMTPipeline._next_event_cycle"),
    ("core/issue_queue.py", "IssueQueue.next_ready_cycle"),
)


# -------------------------------------------------------------- mutations

def _receiver_spelling(node: ast.AST) -> Optional[str]:
    """Dotted spelling of a mutation target/receiver, if it has one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return dotted(node)


def fresh_locals(body: Sequence[ast.stmt]) -> Set[str]:
    """Names bound to containers created inside the region itself."""
    fresh: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_fresh = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                          ast.ListComp, ast.DictComp,
                                          ast.SetComp))
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id in ("list", "dict", "set",
                                          "deque", "sorted"):
                is_fresh = True
            if isinstance(value, ast.Subscript) or not is_fresh:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fresh.add(target.id)
    return fresh


def statement_mutations(stmt: ast.stmt) -> List[Tuple[int, str]]:
    """``(line, spelling)`` of each mutation site this statement itself
    performs (compound statements contribute only their header
    expression — their bodies are visited as statements of their own)."""
    if isinstance(stmt, (ast.If, ast.While)):
        exprs: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs = [stmt.iter]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        return []
    else:
        exprs = [stmt]
    sites: List[Tuple[int, str]] = []
    for root in exprs:
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                 ast.Delete)):
                targets = getattr(node, "targets", None)
                if targets is None:
                    targets = [node.target]
                for target in targets:
                    for leaf in _flatten_targets(target):
                        if isinstance(leaf, (ast.Attribute, ast.Subscript)):
                            spelling = _receiver_spelling(leaf)
                            sites.append((leaf.lineno,
                                          spelling or "<computed>"))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in MUTATOR_METHODS:
                    spelling = _receiver_spelling(func.value)
                    sites.append((node.lineno, spelling or "<computed>"))
                else:
                    full = dotted(func)
                    if full in MUTATOR_FUNCTIONS and node.args:
                        spelling = _receiver_spelling(node.args[0])
                        sites.append((node.lineno, full if spelling is None
                                      else f"{full}({spelling})"))
    return sites


def _flatten_targets(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_targets(elt)
    else:
        yield target


def is_machine_mutation(spelling: str, fresh: Set[str]) -> bool:
    """Is a mutation of ``spelling`` visible outside the function?"""
    return spelling.split(".", 1)[0].split("(", 1)[0] not in fresh


def check_horizon_function(node: ast.AST, path: str, qualname: str,
                           rule_name: str) -> List[Finding]:
    findings: List[Finding] = []
    benign = BENIGN_MUTATIONS.get(qualname, ())
    fresh = fresh_locals(node.body)
    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.stmt):
            continue
        for lineno, spelling in statement_mutations(stmt):
            if not is_machine_mutation(spelling, fresh):
                continue
            if any(spelling.startswith(tolerated) for tolerated in benign):
                continue
            findings.append(Finding(
                rule=rule_name, path=path, line=lineno,
                message=(f"side effect {spelling!r} in horizon query "
                         f"{qualname!r} — skip_horizon/next_*_cycle "
                         "implementations must be pure (a skipped "
                         "cycle must be unobservable); compute the "
                         "horizon without mutating, or document a "
                         "benign lazy prune in analysis/effects.py "
                         "BENIGN_MUTATIONS")))
    return findings


@rule
class HorizonPurityRule(Rule):
    name = "horizon-purity"
    description = ("skip_horizon/next_*_cycle horizon queries must be "
                   "side-effect free (a skipped cycle must be "
                   "unobservable)")

    def run(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, qualname in HORIZON_FUNCTIONS:
            source = ctx.file(relpath)
            if source is None:
                continue
            node = dict(iter_functions(source.tree)).get(qualname)
            if node is None:
                findings.append(Finding(
                    rule=self.name, path=relpath, line=1,
                    message=(f"horizon query {qualname!r} not found in "
                             f"{relpath} — update analysis/effects.py "
                             "HORIZON_FUNCTIONS when renaming it")))
                continue
            findings.extend(check_horizon_function(
                node, relpath, qualname, self.name))
        for source in ctx.files():
            if not source.relpath.startswith("policies/"):
                continue
            for qualname, node in iter_functions(source.tree):
                if qualname.split(".")[-1] == "skip_horizon":
                    findings.extend(check_horizon_function(
                        node, source.relpath, qualname, self.name))
        return findings
