"""Tests for the static-analysis subsystem (`repro lint`).

Covers the self-lint gate (the repo passes its own rules), seeded
violations for every rule against synthetic fixture trees, the
suppression mechanism, the salt-fingerprint acceptance flow on a full
copy of the real package, and the pinned agreement between the static
classifiers and their runtime counterparts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

import repro
from repro.analysis import (LintOptions, rule_names, run_lint)
from repro.analysis.cli import lint_main
from repro.analysis.hooks import policy_verdicts
from repro.analysis.model import LintContext
from repro.core import hookspec, stats
from repro.policies.registry import _REGISTRY as POLICY_REGISTRY

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def write_tree(root, files):
    for relpath, content in files.items():
        path = os.path.join(root, *relpath.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    return root


def findings_by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# Self-lint: the repo passes its own gate.

def test_self_lint_is_clean():
    report = run_lint(PACKAGE_ROOT)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.errors == 0, rendered
    assert report.warnings == 0, rendered
    assert report.exit_code() == 0
    assert list(report.rules) == list(rule_names())
    assert report.files_scanned > 50


def test_core_package_carries_no_suppressions():
    core = os.path.join(PACKAGE_ROOT, "core")
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(core):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                if "lint: disable" in handle.read():
                    offenders.append(path)
    assert offenders == []


# ---------------------------------------------------------------------------
# determinism-hazard

DETERMINISM_FIXTURE = {
    "core/bad.py": (
        "import os\n"
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"
        "\n"
        "\n"
        "def seeded(seed, items):\n"
        "    return random.Random(seed).choice(items)\n"
        "\n"
        "\n"
        "def ident(obj):\n"
        "    return id(obj)\n"
        "\n"
        "\n"
        "def walk(path):\n"
        "    return os.listdir(path)\n"
        "\n"
        "\n"
        "def sorted_walk(path):\n"
        "    return sorted(os.listdir(path))\n"
        "\n"
        "\n"
        "def env():\n"
        "    return os.environ.get('KNOB')\n"
    ),
    "sim/runner.py": (
        "import os\n"
        "\n"
        "\n"
        "def spec_default():\n"
        "    return os.environ.get('REPRO_FULL')\n"
    ),
    "experiments/clock.py": (
        "import time\n"
        "\n"
        "\n"
        "def banner():\n"
        "    return time.time()\n"
    ),
}


def test_determinism_rule_flags_hazards(tmp_path):
    root = write_tree(str(tmp_path), DETERMINISM_FIXTURE)
    report = run_lint(root, LintOptions(rules=["determinism-hazard"]))
    found = findings_by_rule(report, "determinism-hazard")
    messages = {(f.path, f.line): f.message for f in found}
    paths = sorted({f.path for f in found})
    assert paths == ["core/bad.py"]
    blurbs = "\n".join(f.render() for f in found)
    assert any("time.time" in m for m in messages.values()), blurbs
    assert any("random.choice" in m for m in messages.values()), blurbs
    assert any("id()" in m for m in messages.values()), blurbs
    assert any("os.listdir" in m for m in messages.values()), blurbs
    assert any("os.environ" in m for m in messages.values()), blurbs
    # Exactly one listdir finding: the sorted() wrapper is accepted.
    assert sum("os.listdir" in m for m in messages.values()) == 1
    # Seeded random.Random streams are accepted (the fixture's
    # seeded() helper on line 15 draws no finding).
    assert not any(f.line == 15 for f in found), blurbs
    # The declared entry point may read the environment.
    assert not any(f.path == "sim/runner.py" for f in found)
    assert report.exit_code() == 1


def test_determinism_rule_scopes_to_simulation_packages(tmp_path):
    root = write_tree(str(tmp_path), DETERMINISM_FIXTURE)
    report = run_lint(root, LintOptions(rules=["determinism-hazard"]))
    assert not any(f.path.startswith("experiments/")
                   for f in report.findings)


def test_suppression_and_unused_suppression(tmp_path):
    files = {
        "core/pruner.py": (
            "import time\n"
            "\n"
            "\n"
            "def age_reference():\n"
            "    return time.time()  # lint: disable=determinism-hazard\n"
            "\n"
            "\n"
            "def innocent():\n"
            "    return 1  # lint: disable=determinism-hazard\n"
        ),
    }
    root = write_tree(str(tmp_path), files)
    report = run_lint(root, LintOptions(rules=["determinism-hazard"]))
    assert report.suppressed == 1
    unused = findings_by_rule(report, "unused-suppression")
    assert len(unused) == 1 and unused[0].line == 9
    assert findings_by_rule(report, "determinism-hazard") == []
    # A suppression naming a rule that did not run is ignored entirely.
    report = run_lint(root, LintOptions(rules=["digest-safety"]))
    assert findings_by_rule(report, "unused-suppression") == []


# ---------------------------------------------------------------------------
# hook-conformance

HOOK_FIXTURE = {
    "policies/base.py": (
        "class FetchPolicy:\n"
        "    def on_cycle(self):\n"
        "        pass\n"
        "\n"
        "    def on_l2_miss_detected(self):\n"
        "        pass\n"
        "\n"
        "    def skip_horizon(self):\n"
        "        pass\n"
    ),
    "policies/derived.py": (
        "from .base import FetchPolicy\n"
        "\n"
        "\n"
        "class BadPolicy(FetchPolicy):\n"
        "    def on_cycle(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "class GoodPolicy(FetchPolicy):\n"
        "    def on_cycle(self):\n"
        "        pass\n"
        "\n"
        "    def skip_horizon(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "class Bystander:\n"
        "    def on_cycle(self):\n"
        "        pass\n"
    ),
}


def test_hook_conformance_rule(tmp_path):
    root = write_tree(str(tmp_path), HOOK_FIXTURE)
    report = run_lint(root, LintOptions(rules=["hook-conformance"]))
    found = findings_by_rule(report, "hook-conformance")
    assert all("BadPolicy" in f.message for f in found), \
        "\n".join(f.render() for f in found)
    assert len(found) == 1
    assert {f.path for f in found} == {"policies/derived.py"}


def test_static_and_runtime_hook_verdicts_agree():
    """The lint rule and the pipeline's cycle-skip opt-in share one
    classifier — pin that they reach identical verdicts on every
    registered policy."""
    ctx = LintContext(PACKAGE_ROOT)
    static = policy_verdicts(ctx)
    for name, policy_class in sorted(POLICY_REGISTRY.items()):
        class_name = policy_class.__name__
        assert class_name in static, \
            f"{class_name} (policy {name!r}) not seen by the lint rule"
        assert static[class_name]["horizon"] == \
            hookspec.horizon_covers_on_cycle(policy_class), class_name
    # The agreement is meaningful: every registered policy opts in.
    assert all(v["horizon"] for v in static.values())


# ---------------------------------------------------------------------------
# hot-path-hygiene

HOT_FIXTURE = {
    "core/hot.py": (
        "class Engine:\n"
        "    def run(self, items):\n"
        "        out = []\n"
        "        for item in items:\n"
        "            try:\n"
        "                out.append(self.table.data[item])\n"
        "            except KeyError:\n"
        "                out.append(0)\n"
        "            fn = lambda x: x + 1\n"
        "            a = self.state.acc.total\n"
        "            b = self.state.acc.total\n"
        "            out.append(fn(a + b))\n"
        "        return out\n"
        "\n"
        "    def clean(self, items):\n"
        "        total = self.state.acc.total\n"
        "        for item in items:\n"
        "            total += item\n"
        "        return total\n"
    ),
}


def test_hot_path_rule_flags_violations(tmp_path):
    root = write_tree(str(tmp_path), HOT_FIXTURE)
    hot_list = [("core/hot.py", "Engine.run"),
                ("core/hot.py", "Engine.clean"),
                ("core/hot.py", "Engine.gone")]
    report = run_lint(root, LintOptions(rules=["hot-path-hygiene"],
                                        hot_list=hot_list))
    found = findings_by_rule(report, "hot-path-hygiene")
    blurbs = "\n".join(f.render() for f in found)
    assert sum("try block" in f.message for f in found) == 1, blurbs
    assert sum("closure" in f.message for f in found) == 1, blurbs
    assert sum("self.state.acc.total" in f.message
               for f in found) == 1, blurbs
    assert sum("'Engine.gone' not found" in f.message
               for f in found) == 1, blurbs
    # The hoisted-before-the-loop pattern in `clean` is accepted.
    assert not any("Engine.clean" in f.message for f in found), blurbs
    assert len(found) == 4, blurbs


def test_hot_list_defaults_resolve_on_real_tree():
    """Every default hot-list entry must name a real function — a rename
    shows up as a lint error, not a silently skipped check."""
    report = run_lint(PACKAGE_ROOT,
                      LintOptions(rules=["hot-path-hygiene"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


# ---------------------------------------------------------------------------
# digest-safety

def _digest_fixture(thread_fields, global_fields, digest_tuple,
                    diag_tuple):
    body = ["import dataclasses", "", "",
            f"THREAD_DIGEST_FIELDS = {digest_tuple!r}", "",
            f"DIGEST_SAFE_DIAGNOSTICS = {diag_tuple!r}", "", ""]
    for class_name, fields in (("ThreadStats", thread_fields),
                               ("GlobalStats", global_fields)):
        body.append("@dataclasses.dataclass")
        body.append(f"class {class_name}:")
        for field in fields:
            body.append(f"    {field}: int = 0")
        body.append("")
        body.append("")
    return {"core/stats.py": "\n".join(body)}


def test_digest_rule_flags_unclassified_and_stale(tmp_path):
    files = _digest_fixture(
        thread_fields=("committed", "fetched"),
        global_fields=("cycles",),
        digest_tuple=("committed", "ghost"),
        diag_tuple=("cycles",))
    root = write_tree(str(tmp_path), files)
    report = run_lint(root, LintOptions(rules=["digest-safety"]))
    found = findings_by_rule(report, "digest-safety")
    blurbs = "\n".join(f.render() for f in found)
    assert sum("ThreadStats.fetched is not classified" in f.message
               for f in found) == 1, blurbs
    assert sum("'ghost'" in f.message for f in found) == 1, blurbs
    assert len(found) == 2, blurbs


def test_digest_rule_accepts_complete_classification(tmp_path):
    files = _digest_fixture(
        thread_fields=("committed", "fetched"),
        global_fields=("cycles", "committed"),
        digest_tuple=("committed", "fetched"),
        diag_tuple=("cycles", "committed"))
    root = write_tree(str(tmp_path), files)
    report = run_lint(root, LintOptions(rules=["digest-safety"]))
    assert findings_by_rule(report, "digest-safety") == []


def test_digest_declarations_agree_with_runtime_dataclasses():
    thread_fields = {f.name for f in dataclasses.fields(stats.ThreadStats)}
    global_fields = {f.name for f in dataclasses.fields(stats.GlobalStats)}
    assert set(stats.THREAD_DIGEST_FIELDS) == thread_fields
    assert set(stats.DIGEST_SAFE_DIAGNOSTICS) == global_fields
    # The declarations also pin the serialization surface: to_dict()
    # must expose exactly the digest-participating slots, plus
    # ``issued``, which is ``executed`` under its serialized name.
    assert set(stats.ThreadStats().to_dict()) == \
        set(stats.THREAD_DIGEST_FIELDS) | {"issued"}


# ---------------------------------------------------------------------------
# salt-fingerprint (acceptance-criterion flow on a real-tree copy)

@pytest.fixture()
def package_copy(tmp_path):
    copy_root = str(tmp_path / "repro")
    shutil.copytree(PACKAGE_ROOT, copy_root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy_root


def _edit(root, relpath, old, new):
    path = os.path.join(root, *relpath.split("/"))
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert old in text, f"{old!r} not found in {relpath}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new, 1))


def test_fingerprint_rule_clean_on_unmodified_copy(package_copy):
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_semantic_edit_requires_salt_bump_or_repin(package_copy):
    # The acceptance-criterion edit: reorder the canonical-encoding
    # keys of the cache_key payload in the copy's sim/store.py.
    _edit(package_copy, "sim/store.py",
          '        "workload": workload.to_dict(),\n'
          '        "policy": policy,\n',
          '        "policy": policy,\n'
          '        "workload": workload.to_dict(),\n')
    options = LintOptions(rules=["salt-fingerprint"])
    report = run_lint(package_copy, options)
    found = findings_by_rule(report, "salt-fingerprint")
    assert len(found) == 1 and found[0].path == "sim/store.py", \
        "\n".join(f.render() for f in report.findings)
    assert found[0].severity == "error"
    assert "CODE_VERSION_SALT" in found[0].message
    assert report.exit_code() == 1

    # Bumping the governing salt resolves the error (leaving only the
    # re-pin reminder warning), exactly as the salt policy demands.
    _edit(package_copy, "sim/store.py",
          'CODE_VERSION_SALT = "sim-engine-v3"',
          'CODE_VERSION_SALT = "sim-engine-v4"')
    report = run_lint(package_copy, options)
    assert report.errors == 0, \
        "\n".join(f.render() for f in report.findings)
    assert report.warnings == 1
    assert "accept-fingerprints" in report.findings[0].message
    assert report.exit_code() == 0

    # --accept-fingerprints re-pins; the next run is fully clean.
    accept = LintOptions(rules=["salt-fingerprint"],
                         accept_fingerprints=True)
    report = run_lint(package_copy, accept)
    assert report.findings == [] and report.repinned is not None
    assert report.repinned["salts"]["code"] == "sim-engine-v4"
    report = run_lint(package_copy, options)
    assert report.findings == []


def test_repin_alone_accepts_verified_refactor(package_copy):
    _edit(package_copy, "sim/store.py",
          '        "workload": workload.to_dict(),\n'
          '        "policy": policy,\n',
          '        "policy": policy,\n'
          '        "workload": workload.to_dict(),\n')
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"],
                                  accept_fingerprints=True))
    assert report.findings == [] and report.repinned is not None
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    assert report.findings == []


def test_render_scope_accepts_exhibit_version_bump(package_copy):
    # A change confined to one exhibit may bump that exhibit's
    # class-level `version` instead of the global render salt; the
    # declaration itself is the semantic edit here.
    _edit(package_copy, "experiments/table1.py",
          'class Table1(Exhibit):\n',
          'class Table1(Exhibit):\n    version = 2\n')
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)
    # The same edit without the version bump is an error.
    _edit(package_copy, "experiments/table1.py",
          "    version = 2\n", "    extra_attribute = 2\n")
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    found = findings_by_rule(report, "salt-fingerprint")
    assert len(found) == 1 and found[0].path == "experiments/table1.py"
    assert "EXHIBIT_RENDER_SALT" in found[0].message


def test_new_salt_scoped_module_must_be_pinned(package_copy):
    write_tree(package_copy, {"core/extra.py": "VALUE = 1\n"})
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    found = findings_by_rule(report, "salt-fingerprint")
    assert len(found) == 1 and found[0].path == "core/extra.py"
    assert "not pinned" in found[0].message


def test_docstring_and_comment_edits_do_not_drift(package_copy):
    _edit(package_copy, "core/stats.py",
          "Simulation statistics.",
          "Simulation statistics (reworded).")
    _edit(package_copy, "mem/cache.py", "\"\"\"", "\"\"\"  \n", )
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_missing_baseline_is_an_error(tmp_path, package_copy):
    options = LintOptions(
        rules=["salt-fingerprint"],
        fingerprints_path=str(tmp_path / "nowhere.json"))
    report = run_lint(package_copy, options)
    found = findings_by_rule(report, "salt-fingerprint")
    assert len(found) == 1
    assert "no readable fingerprint baseline" in found[0].message
    assert report.exit_code() == 1


# ---------------------------------------------------------------------------
# CLI

def test_cli_json_document_shape(capsys):
    exit_code = lint_main(["--format", "json"])
    assert exit_code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert set(document) >= {"version", "root", "rules", "files",
                             "findings", "summary"}
    summary = document["summary"]
    assert summary["errors"] == 0 and summary["warnings"] == 0
    assert isinstance(summary["suppressed"], int)
    # Per-rule execution stats: every rule that ran reports a finding
    # count and a wall time.
    assert set(summary["rules"]) == set(rule_names())
    for stats in summary["rules"].values():
        assert isinstance(stats["findings"], int)
        assert isinstance(stats["seconds"], float)
    # The derived-kernel classes ride along whenever hot-path-hygiene ran.
    assert summary["kernel_classes"] == ["full", "no-fp-inval-3t",
                                         "no-runahead", "minimal"]
    assert document["rules"] == list(rule_names())
    assert document["findings"] == []


def test_cli_exit_codes(tmp_path, capsys):
    root = write_tree(str(tmp_path), DETERMINISM_FIXTURE)
    assert lint_main(["--root", root,
                      "--rules", "determinism-hazard"]) == 1
    out = capsys.readouterr().out
    assert "determinism-hazard" in out and "error" in out
    assert lint_main(["--rules", "no-such-rule"]) == 2
    assert lint_main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for name in rule_names():
        assert name in listed


def test_cli_accept_fingerprints_round_trip(package_copy, capsys):
    pins = os.path.join(package_copy, "analysis", "fingerprints.json")
    os.unlink(pins)
    assert lint_main(["--root", package_copy,
                      "--rules", "salt-fingerprint"]) == 1
    capsys.readouterr()
    assert lint_main(["--root", package_copy,
                      "--rules", "salt-fingerprint",
                      "--accept-fingerprints"]) == 0
    out = capsys.readouterr().out
    assert "re-pinned" in out
    assert os.path.exists(pins)
    assert lint_main(["--root", package_copy,
                      "--rules", "salt-fingerprint"]) == 0
