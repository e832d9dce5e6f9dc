"""The lint engine: rules x tree -> :class:`~repro.analysis.model.LintReport`.

``run_lint`` is the single entry point used by the CLI, the CI gate and
the test-suite: build a :class:`LintContext` over one package root
(default: the installed ``repro`` package itself), run the selected
rules, fold in per-line suppressions, and return a deterministic,
sorted report.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from .model import Finding, LintContext, LintOptions, LintReport
from .registry import create_rules
from .suppressions import apply_suppressions

# Import the rule modules for their registration side effect.
from . import determinism as _determinism      # noqa: F401
from . import digests as _digests              # noqa: F401
from . import effects as _effects              # noqa: F401
from . import fingerprint as _fingerprint      # noqa: F401
from . import hooks as _hooks                  # noqa: F401
from . import hotpath as _hotpath              # noqa: F401


def default_root() -> str:
    """The installed ``repro`` package directory — the tree `repro lint`
    certifies unless ``--root`` points elsewhere."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(root: Optional[str] = None,
             options: Optional[LintOptions] = None) -> LintReport:
    """Lint ``root`` (default: the live ``repro`` package) and report."""
    if root is None:
        root = default_root()
    if options is None:
        options = LintOptions()
    ctx = LintContext(root, options)
    rules = create_rules(options.rules)
    findings: List[Finding] = []
    rule_stats: Dict[str, Dict] = {}
    for rule_instance in rules:
        started = time.perf_counter()
        produced: List[Finding] = []
        try:
            produced = rule_instance.run(ctx)
        except SyntaxError as exc:
            relpath = os.path.relpath(exc.filename or root,
                                      ctx.root).replace(os.sep, "/")
            produced = [Finding(
                rule=rule_instance.name, path=relpath,
                line=exc.lineno or 1,
                message=(f"file does not parse ({exc.msg}) — an "
                         "unparsable tree cannot be certified"))]
        findings.extend(produced)
        rule_stats[rule_instance.name] = {
            "findings": len(produced),
            "seconds": time.perf_counter() - started,
        }
    findings, suppressed = apply_suppressions(
        findings, ctx.files(), [r.name for r in rules])
    findings.sort(key=Finding.sort_key)
    return LintReport(
        root=ctx.root,
        rules=[r.name for r in rules],
        files_scanned=len(ctx.files()),
        findings=findings,
        suppressed=suppressed,
        repinned=ctx.repinned,
        rule_stats=rule_stats,
        kernel_classes=getattr(ctx, "kernel_classes", None),
    )
