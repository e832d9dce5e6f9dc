"""Rule ``hook-conformance``: the runtime cycle-skip opt-in, made static.

Cycle skipping is gated on a policy opt-in declaration (see
:mod:`repro.core.hookspec`): a policy that overrides ``on_cycle`` must
(re)declare ``skip_horizon`` at or below the override.  At run time a
missing declaration merely disables the fast path — safe but silently
slow, and invisible until someone profiles.  This rule makes
the contract a build-time failure instead.

The verdicts come from the *same classifier* the pipeline constructor
uses (:func:`repro.core.hookspec.contract_covers`) — the rule only
swaps the runtime MRO for a definition chain derived from the policy
sources' AST, and ``tests/test_lint.py`` pins that both agree on every
registered policy.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..core import hookspec
from .model import Finding, LintContext
from .registry import Rule, rule

#: Where the policy hierarchy lives, and the class that roots it.
POLICY_DIR = "policies/"
ROOT_CLASS = "FetchPolicy"


class _ClassInfo:
    __slots__ = ("name", "relpath", "line", "bases", "defined")

    def __init__(self, name: str, relpath: str, line: int,
                 bases: List[str], defined: Set[str]) -> None:
        self.name = name
        self.relpath = relpath
        self.line = line
        self.bases = bases
        self.defined = defined


def _scan_classes(ctx: LintContext) -> Dict[str, _ClassInfo]:
    """Every class defined under ``policies/``, by (unqualified) name."""
    table: Dict[str, _ClassInfo] = {}
    for source in ctx.files():
        if not source.relpath.startswith(POLICY_DIR):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            defined = {
                stmt.name for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))}
            defined.update(
                target.id for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
                if isinstance(target, ast.Name))
            table[node.name] = _ClassInfo(node.name, source.relpath,
                                          node.lineno, bases, defined)
    return table


def _definition_chain(info: _ClassInfo, table: Dict[str, _ClassInfo]
                      ) -> Optional[List[_ClassInfo]]:
    """The class chain from ``info`` down to ``FetchPolicy``, or None
    when the hierarchy never reaches it (not a policy).

    Bases are linearized depth-first, left to right — equivalent to the
    MRO for the package's single-inheritance policy tree, and a sound
    approximation (first definition wins) if diamonds ever appear.
    """
    chain: List[_ClassInfo] = []
    seen: Set[str] = set()

    def visit(name: str) -> bool:
        if name in seen:
            return False
        seen.add(name)
        node = table.get(name)
        if node is None:
            return False
        chain.append(node)
        if name == ROOT_CLASS:
            return True
        return any(visit(base) for base in node.bases)

    return chain if visit(info.name) else None


def policy_verdicts(ctx: LintContext) -> Dict[str, Dict[str, bool]]:
    """Static conformance verdicts per policy class name.

    ``{"PolicyName": {"horizon": bool}}`` — computed with
    :func:`repro.core.hookspec.contract_covers` over the AST-derived
    definition chain.  Exposed for the runtime-agreement test.
    """
    table = _scan_classes(ctx)
    verdicts: Dict[str, Dict[str, bool]] = {}
    for name in sorted(table):
        chain = _definition_chain(table[name], table)
        if chain is None:
            continue
        defined_chain = [node.defined for node in chain]
        verdicts[name] = {
            "horizon": hookspec.contract_covers(
                defined_chain, hookspec.HORIZON_CONTRACT,
                hookspec.HORIZON_TRIGGERS),
        }
    return verdicts


@rule
class HookConformanceRule(Rule):
    name = "hook-conformance"
    description = ("a policy overriding on_cycle must (re)declare "
                   "skip_horizon at or below the override")

    def run(self, ctx: LintContext) -> List[Finding]:
        table = _scan_classes(ctx)
        findings: List[Finding] = []
        for name in sorted(table):
            info = table[name]
            chain = _definition_chain(info, table)
            if chain is None:
                continue
            defined_chain = [node.defined for node in chain]
            if not hookspec.contract_covers(
                    defined_chain, hookspec.HORIZON_CONTRACT,
                    hookspec.HORIZON_TRIGGERS):
                findings.append(Finding(
                    rule=self.name, path=info.relpath, line=info.line,
                    message=(f"policy {name!r} overrides on_cycle "
                             "without (re)declaring skip_horizon at or "
                             "below the override — the pipeline "
                             "disables cycle skipping for it; declare "
                             "the wakeup contract (see "
                             "FetchPolicy.skip_horizon)")))
        return findings
