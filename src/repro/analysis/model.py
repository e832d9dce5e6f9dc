"""Data model of the static-analysis subsystem.

A lint run is a pure function of a *source tree*: :class:`LintContext`
discovers the ``.py`` files under one package root (normally the
installed ``repro`` package; tests point it at fixture trees), parses
each at most once, and hands the cached ASTs to the rules.  Rules emit
:class:`Finding` records; the engine folds in suppressions and wraps
everything in a :class:`LintReport`.

Everything here is deliberately runtime-import-free with respect to the
*linted* tree: rules read source and ASTs, never import the modules they
check, so `repro lint` can judge a tree that is broken, foreign, or
mid-edit.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

#: Finding severities.  Only errors affect the exit code; warnings are
#: advisory (e.g. "salt bumped, fingerprints not yet re-pinned").
SEVERITIES = ("error", "warning")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line of the linted tree."""

    rule: str
    path: str          # package-relative posix path, e.g. "sim/store.py"
    line: int
    message: str
    severity: str = "error"

    def to_dict(self) -> Dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "severity": self.severity}

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.rule, self.message)

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.severity}: "
                f"[{self.rule}] {self.message}")


class SourceFile:
    """One ``.py`` file of the linted tree, parsed lazily and once."""

    def __init__(self, root: str, relpath: str) -> None:
        self.relpath = relpath               # posix separators
        self.path = os.path.join(root, *relpath.split("/"))
        self._text: Optional[str] = None
        self._tree: Optional[ast.Module] = None

    @property
    def text(self) -> str:
        if self._text is None:
            with open(self.path, "r", encoding="utf-8") as handle:
                self._text = handle.read()
        return self._text

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    @property
    def tree(self) -> ast.Module:
        """The parsed module (raises ``SyntaxError`` on an unparsable
        file — a tree that cannot parse cannot be certified either)."""
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=self.path)
        return self._tree


@dataclasses.dataclass
class LintOptions:
    """Knobs of one lint run (fixture overrides live here).

    ``None`` for any field means "the rule's built-in default" — the
    defaults describe the real repo; tests linting synthetic trees pass
    their own hot list / entry points / pins path.
    """

    #: Rule names to run (None = every registered rule).
    rules: Optional[Sequence[str]] = None
    #: Re-pin ``analysis/fingerprints.json`` instead of checking it.
    accept_fingerprints: bool = False
    #: Hot-function list for hot-path-hygiene: (relpath, qualname) pairs.
    hot_list: Optional[Sequence[Tuple[str, str]]] = None
    #: Module relpaths allowed to read ``os.environ`` (the declared
    #: config entry points of the determinism rule).
    environ_entry_points: Optional[Sequence[str]] = None
    #: Path of the fingerprint pins file (default:
    #: ``<root>/analysis/fingerprints.json``).
    fingerprints_path: Optional[str] = None


class LintContext:
    """The linted tree plus per-run options, shared by every rule."""

    def __init__(self, root: str,
                 options: Optional[LintOptions] = None) -> None:
        self.root = os.path.abspath(root)
        self.options = options if options is not None else LintOptions()
        #: Set by the fingerprint rule when --accept-fingerprints re-pins.
        self.repinned: Optional[Dict] = None
        self._files: Optional[List[SourceFile]] = None
        self._by_relpath: Dict[str, SourceFile] = {}

    def files(self) -> List[SourceFile]:
        """Every ``.py`` file under the root, in sorted relpath order."""
        if self._files is None:
            found: List[str] = []
            for dirpath, dirnames, filenames in os.walk(self.root):
                dirnames[:] = sorted(
                    name for name in dirnames
                    if not name.startswith(".") and name != "__pycache__")
                rel = os.path.relpath(dirpath, self.root)
                prefix = "" if rel == "." else rel.replace(os.sep, "/") + "/"
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(prefix + filename)
            self._files = [SourceFile(self.root, relpath)
                           for relpath in found]
            self._by_relpath = {f.relpath: f for f in self._files}
        return self._files

    def file(self, relpath: str) -> Optional[SourceFile]:
        """The tree's file at ``relpath``, or None if absent."""
        self.files()
        return self._by_relpath.get(relpath)

    @property
    def fingerprints_path(self) -> str:
        if self.options.fingerprints_path:
            return self.options.fingerprints_path
        return os.path.join(self.root, "analysis", "fingerprints.json")


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run."""

    root: str
    rules: List[str]
    files_scanned: int
    findings: List[Finding]
    suppressed: int = 0
    repinned: Optional[Dict] = None   # set by --accept-fingerprints
    #: Per-rule execution stats from the engine:
    #: ``{rule: {"findings": int, "seconds": float}}``.
    rule_stats: Optional[Dict[str, Dict]] = None
    #: Derived-kernel coverage classes hot-path-hygiene checked (set
    #: when that rule ran over a tree with a kernel generator).
    kernel_classes: Optional[List[str]] = None

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def to_dict(self) -> Dict:
        """The machine-readable report (the CI gate validates this shape)."""
        document = {
            "version": 1,
            "root": self.root,
            "rules": list(self.rules),
            "files": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "summary": self._summary(),
        }
        if self.repinned is not None:
            document["repinned"] = self.repinned
        return document

    def _summary(self) -> Dict:
        summary: Dict = {"errors": self.errors, "warnings": self.warnings,
                         "suppressed": self.suppressed}
        if self.rule_stats is not None:
            summary["rules"] = {
                name: {"findings": stats["findings"],
                       "seconds": round(stats["seconds"], 6)}
                for name, stats in sorted(self.rule_stats.items())}
        if self.kernel_classes is not None:
            summary["kernel_classes"] = list(self.kernel_classes)
        return summary

    def render_text(self) -> str:
        out = [finding.render() for finding in self.findings]
        if self.repinned is not None:
            for relpath in self.repinned.get("changed") or ():
                out.append(f"re-pinned: {relpath}")
            changed = len(self.repinned.get("changed") or ())
            out.append(
                f"re-pinned {self.repinned['modules']} fingerprint(s) "
                f"({changed} changed) -> {self.repinned['path']}")
        out.append(
            f"repro lint: {self.errors} error(s), {self.warnings} "
            f"warning(s), {self.suppressed} suppressed — "
            f"{len(self.rules)} rule(s) over {self.files_scanned} "
            f"file(s)")
        return "\n".join(out)
