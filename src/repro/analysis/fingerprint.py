"""Rule ``salt-fingerprint``: the salt-bump policy, machine-checked.

``CODE_VERSION_SALT`` participates in every result-cache key and
``EXHIBIT_RENDER_SALT`` in every render-cache key (see
:mod:`repro.sim.store`).  The policy — *bump the salt whenever the
simulator could produce a different result for an existing key* — used
to live only in a docstring; a forgotten bump meant every shared store
silently served stale results.  This rule turns the policy into a gate:

* every **salt-scoped module** (the packages whose semantics decide what
  a cell produces, :data:`CODE_SCOPE_DIRS`/:data:`CODE_SCOPE_FILES`, and
  the renderer packages :data:`RENDER_SCOPE_DIRS` for the render salt)
  has a **normalized-AST sha256 fingerprint** — docstrings and comments
  do not participate, code structure does;
* the accepted baseline is pinned in ``analysis/fingerprints.json``;
* a fingerprint drift is an **error** unless the governing salt was
  bumped in the same tree (render-scope modules may alternatively bump
  an exhibit's class-level ``version`` attribute, matching the
  per-exhibit invalidation escape documented in ``sim/store.py``);
* after a salt bump, a **warning** reminds until the baseline is
  re-pinned via ``repro lint --accept-fingerprints``.

The fingerprint is deliberately conservative: it cannot tell a
semantics-preserving refactor from a behaviour change, so some drifts
will demand a bump (or an explicit re-pin) that bit-identity did not
strictly require.  That is the documented trade-off of the salt policy
itself — the cost of a false bump is one cold campaign; the cost of a
missed one is a wrong figure.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

from .model import Finding, LintContext, SourceFile
from .registry import Rule, rule

#: Directories (relpath prefixes) under the code salt: their semantics
#: decide what a simulation cell produces for a given key.
CODE_SCOPE_DIRS = ("core/", "mem/", "trace/", "policies/", "branch/")

#: Individual modules under the code salt: the ISA tables, the config
#: encoding (both inputs to every cell), the cache-key derivation and
#: the run loops that drive a cell to completion.
CODE_SCOPE_FILES = ("isa.py", "config.py", "sim/store.py", "sim/runner.py",
                    "sim/kernels.py")

#: Directories under the render salt: everything that turns cached runs
#: into exhibit documents (renderers and the derived-metric helpers).
RENDER_SCOPE_DIRS = ("experiments/", "metrics/")

#: Where the salts themselves are declared (parsed statically from the
#: linted tree, never imported).
SALT_MODULE = "sim/store.py"
SALT_NAMES = {"code": "CODE_VERSION_SALT", "render": "EXHIBIT_RENDER_SALT"}

PINS_VERSION = 1


def module_scope(relpath: str) -> Optional[str]:
    """``"code"``/``"render"`` for salt-scoped modules, else None."""
    if relpath.startswith(CODE_SCOPE_DIRS) or relpath in CODE_SCOPE_FILES:
        return "code"
    if relpath.startswith(RENDER_SCOPE_DIRS):
        return "render"
    return None


def normalized_fingerprint(text: str) -> str:
    """sha256 of the docstring-stripped AST dump of ``text``.

    Comments never reach the AST; docstrings are replaced with ``pass``
    so documentation work can never demand a salt bump.  Everything
    else — names, control flow, constants, annotations, statement
    order — participates: if the dump moved, the module's semantics
    *may* have moved, and the salt policy says "when in doubt, bump".
    """
    tree = ast.parse(text)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body[0] = ast.Pass()
    dump = ast.dump(tree, annotate_fields=False, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def exhibit_versions(tree: ast.Module) -> Dict[str, int]:
    """Class-level ``version = <const>`` assignments, per class name.

    A render-scope module may bump one exhibit's ``version`` instead of
    the global render salt (the per-exhibit invalidation escape); the
    pin records these so that escape is visible to the rule.
    """
    versions: Dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == "version" \
                    and isinstance(stmt.value, ast.Constant):
                versions[node.name] = stmt.value.value
    return versions


def extract_salts(source: SourceFile
                  ) -> Tuple[Dict[str, str], Dict[str, int]]:
    """The salt constants (and their lines) declared in ``sim/store.py``."""
    wanted = {name: scope for scope, name in SALT_NAMES.items()}
    salts: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in wanted \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            scope = wanted[node.targets[0].id]
            salts[scope] = node.value.value
            lines[scope] = node.lineno
    return salts, lines


def compute_baseline(ctx: LintContext) -> Optional[Dict]:
    """The tree's current fingerprint baseline (the shape of the pins
    file), or None when the salts cannot be located."""
    salt_source = ctx.file(SALT_MODULE)
    if salt_source is None:
        return None
    salts, _lines = extract_salts(salt_source)
    if set(salts) != {"code", "render"}:
        return None
    modules: Dict[str, Dict] = {}
    for source in ctx.files():
        scope = module_scope(source.relpath)
        if scope is None:
            continue
        record: Dict = {"scope": scope,
                        "sha256": normalized_fingerprint(source.text)}
        if scope == "render":
            record["versions"] = exhibit_versions(source.tree)
        modules[source.relpath] = record
    return {"version": PINS_VERSION, "salts": salts, "modules": modules}


def _changed_modules(pins_path: str, baseline: Dict) -> List[str]:
    """The module relpaths whose pin an ``--accept-fingerprints`` run
    actually moves: drifted fingerprints, new modules, and removed pins.
    An unreadable/absent baseline pins everything for the first time."""
    try:
        with open(pins_path, "r", encoding="utf-8") as handle:
            pins = json.load(handle)
    except (OSError, ValueError):
        return sorted(baseline["modules"])
    pinned = pins.get("modules", {})
    changed = []
    for relpath, record in baseline["modules"].items():
        old = pinned.get(relpath)
        if old is None or old.get("sha256") != record["sha256"] \
                or old.get("versions") != record.get("versions"):
            changed.append(relpath)
    changed.extend(relpath for relpath in pinned
                   if relpath not in baseline["modules"])
    return sorted(changed)


def write_pins(path: str, baseline: Dict) -> None:
    """Atomically (re-)pin the fingerprint baseline."""
    from ..sim.store import atomic_write_json
    atomic_write_json(path, baseline, indent=2, trailing_newline=True)


@rule
class FingerprintRule(Rule):
    name = "salt-fingerprint"
    description = ("semantic drift in a salt-scoped module requires a "
                   "CODE_VERSION_SALT/EXHIBIT_RENDER_SALT bump or an "
                   "explicit `repro lint --accept-fingerprints` re-pin")

    def run(self, ctx: LintContext) -> List[Finding]:
        baseline = compute_baseline(ctx)
        if baseline is None:
            return [Finding(
                rule=self.name, path=SALT_MODULE, line=1,
                message=(f"cannot locate {SALT_NAMES['code']} / "
                         f"{SALT_NAMES['render']} string constants in "
                         f"{SALT_MODULE} — the fingerprint rule needs "
                         "the declared salts to judge drift"))]
        pins_path = ctx.fingerprints_path
        if ctx.options.accept_fingerprints:
            changed = _changed_modules(pins_path, baseline)
            write_pins(pins_path, baseline)
            ctx.repinned = {"path": pins_path,
                            "modules": len(baseline["modules"]),
                            "changed": changed,
                            "salts": baseline["salts"]}
            return []
        try:
            with open(pins_path, "r", encoding="utf-8") as handle:
                pins = json.load(handle)
        except (OSError, ValueError):
            return [Finding(
                rule=self.name,
                path=os.path.relpath(pins_path, ctx.root).replace(
                    os.sep, "/"),
                line=1,
                message=("no readable fingerprint baseline — run "
                         "`repro lint --accept-fingerprints` to pin "
                         "the current tree"))]
        return self._compare(ctx, baseline, pins)

    def _compare(self, ctx: LintContext, baseline: Dict,
                 pins: Dict) -> List[Finding]:
        findings: List[Finding] = []
        pinned_salts = pins.get("salts", {})
        pinned_modules = pins.get("modules", {})
        salts = baseline["salts"]
        salt_bumped = {scope: salts[scope] != pinned_salts.get(scope)
                       for scope in salts}

        _salt_source = ctx.file(SALT_MODULE)
        _, salt_lines = extract_salts(_salt_source)
        for scope in sorted(salt_bumped):
            if salt_bumped[scope]:
                findings.append(Finding(
                    rule=self.name, path=SALT_MODULE,
                    line=salt_lines.get(scope, 1), severity="warning",
                    message=(f"{SALT_NAMES[scope]} changed "
                             f"({pinned_salts.get(scope)!r} -> "
                             f"{salts[scope]!r}) but the fingerprint "
                             "baseline still pins the old salt — run "
                             "`repro lint --accept-fingerprints` in "
                             "the same change")))

        bump_hint = {
            "code": (f"bump {SALT_NAMES['code']} in {SALT_MODULE} (stale "
                     "store entries must miss, not serve old results)"),
            "render": (f"bump {SALT_NAMES['render']} in {SALT_MODULE} "
                       "or the touched exhibit's `version` attribute"),
        }
        for relpath in sorted(set(baseline["modules"]) |
                              set(pinned_modules)):
            current = baseline["modules"].get(relpath)
            pinned = pinned_modules.get(relpath)
            if current is None:
                scope = pinned.get("scope", "code")
                if not salt_bumped.get(scope):
                    findings.append(Finding(
                        rule=self.name, path=relpath, line=1,
                        message=("salt-scoped module was removed or "
                                 "renamed without a "
                                 f"{SALT_NAMES[scope]} bump — "
                                 f"{bump_hint[scope]}, or re-pin with "
                                 "`repro lint --accept-fingerprints`")))
                continue
            scope = current["scope"]
            if pinned is None:
                if not salt_bumped.get(scope):
                    findings.append(Finding(
                        rule=self.name, path=relpath, line=1,
                        message=("new salt-scoped module is not pinned "
                                 "— run `repro lint "
                                 "--accept-fingerprints` (and "
                                 f"{bump_hint[scope]} if it changes "
                                 "what existing cells produce)")))
                continue
            if current["sha256"] == pinned.get("sha256"):
                continue
            if salt_bumped.get(scope):
                continue   # drift covered by the salt bump
            if scope == "render" and current.get("versions") \
                    != pinned.get("versions"):
                continue   # per-exhibit version bump is the escape
            findings.append(Finding(
                rule=self.name, path=relpath, line=1,
                message=("normalized-AST fingerprint drifted from the "
                         "pinned baseline with no "
                         f"{SALT_NAMES[scope]} bump — semantic changes "
                         "here can make shared caches serve stale "
                         f"results; {bump_hint[scope]}, or — for a "
                         "verified bit-identical refactor — re-pin "
                         "with `repro lint --accept-fingerprints`")))
        return findings
