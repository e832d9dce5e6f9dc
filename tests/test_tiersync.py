"""Tests for the tier-sync congruence engine and the horizon-purity rule.

The acceptance criterion of the kernel-tier static gate: a semantic
one-line edit to a pipeline hot path (or to its emitter) that is not
mirrored on the other side must fail ``repro lint``, with a
normalized-AST diff naming both the source function and the emitter.
Seeded violations run against full copies of the real package — the
same trees the shipped FRAGMENTS table certifies — so the fixtures
drift together with the code they check.
"""

from __future__ import annotations

import ast
import json
import os
import shutil

import pytest

import repro
from repro.analysis import LintOptions, run_lint
from repro.analysis.astutil import iter_functions
from repro.analysis.cli import lint_main
from repro.analysis.hotpath import check_function

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: The hot-path functions the FRAGMENTS table must keep covered: the
#: four pipeline stages plus the event drain.  A
#: fragment removal that drops one of these is a gate regression, not a
#: declaration detail.
REQUIRED_COVERAGE = (
    "core/pipeline.py:SMTPipeline._process_events",
    "core/pipeline.py:SMTPipeline._commit_stage",
    "core/pipeline.py:SMTPipeline._commit_thread",
    "core/pipeline.py:SMTPipeline._issue_stage",
    "core/pipeline.py:SMTPipeline._issue_load",
    "core/pipeline.py:SMTPipeline._dispatch_stage",
    "core/pipeline.py:SMTPipeline._dispatch",
    "core/pipeline.py:SMTPipeline._fetch_stage",
    "core/pipeline.py:SMTPipeline._fetch_thread",
    "core/issue_queue.py:IssueQueue.take_ready",
)


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


# ---------------------------------------------------------------------------
# The shipped declarations are congruent and cover what they claim.

def test_shipped_fragments_pass_tier_sync():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)
    assert report.exit_code() == 0


def test_fragment_coverage_includes_every_stage():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    coverage = report.fragment_coverage
    assert coverage is not None
    assert coverage["fragments"] >= 6
    for required in REQUIRED_COVERAGE:
        assert required in coverage["functions"], \
            f"fragment coverage lost {required}"


def test_fragment_coverage_counts_all_claimed_lines():
    # ``lines_covered`` must equal the full body span of every claimed
    # function — 100% of the claimed lines, recomputed here from the
    # real tree so the pin cannot drift silently.
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    coverage = report.fragment_coverage
    expected = 0
    trees = {}
    for entry in coverage["functions"]:
        relpath, qualname = entry.split(":", 1)
        if relpath not in trees:
            path = os.path.join(PACKAGE_ROOT, *relpath.split("/"))
            with open(path, "r", encoding="utf-8") as handle:
                trees[relpath] = ast.parse(handle.read())
        node = dict(iter_functions(trees[relpath]))[qualname]
        expected += (node.end_lineno or node.lineno) - node.lineno + 1
    assert coverage["lines_covered"] == expected
    assert expected > 500   # the hot tier is not a token sample


def test_horizon_purity_clean_on_real_tree():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["horizon-purity"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


# ---------------------------------------------------------------------------
# Seeded violations: each side of the mirror, edited alone, fails.

def test_source_edit_without_emitter_mirror_fails(package_copy):
    # One semantic line in the fetch hot loop (count += 1 -> += 2),
    # declared substitutions all still apply: the residual diff must
    # name both the source function and the emitter, with line anchors.
    _edit(package_copy, "core/pipeline.py",
          "            inst.counted = True\n"
          "            append(inst)\n"
          "            count += 1",
          "            inst.counted = True\n"
          "            append(inst)\n"
          "            count += 2")
    report = run_lint(package_copy, LintOptions(rules=["tier-sync"]))
    assert report.exit_code() == 1
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert "core/pipeline.py:" in message and "_fetch_stage" in message
    assert "core/kernel_gen.py:" in message and "_emit_fetch" in message
    assert "--- " in message and "+++ " in message   # unified diff shown
    assert "count += 2" in message


def test_emitter_edit_without_source_mirror_fails(package_copy):
    _edit(package_copy, "core/kernel_gen.py",
          'emit("                fetched_total += count")',
          'emit("                fetched_total += count + 1")')
    report = run_lint(package_copy, LintOptions(rules=["tier-sync"]))
    assert report.exit_code() == 1
    message = report.findings[0].message
    assert "_fetch_stage" in message and "_emit_fetch" in message
    assert "fetched_total" in message


def test_undeclared_new_local_fails(package_copy):
    # A new statement in the source with no declared substitution: the
    # normalized forms differ by exactly the undeclared line.
    _edit(package_copy, "core/pipeline.py",
          "        count = 0\n"
          "        icache_done = now + self._icache_latency",
          "        count = 0\n"
          "        fetched_n = 0\n"
          "        icache_done = now + self._icache_latency")
    report = run_lint(package_copy, LintOptions(rules=["tier-sync"]))
    assert report.exit_code() == 1
    message = report.findings[0].message
    assert "residual structural difference" in message
    assert "fetched_n" in message


def test_side_effecting_skip_horizon_fails(package_copy):
    _edit(package_copy, "policies/dcra.py",
          "        remainder = now % self._interval",
          "        self._last_skip = now\n"
          "        remainder = now % self._interval")
    report = run_lint(package_copy, LintOptions(rules=["horizon-purity"]))
    assert report.exit_code() == 1
    message = report.findings[0].message
    assert "self._last_skip" in message and "skip_horizon" in message
    assert "must be pure" in message


# ---------------------------------------------------------------------------
# Generated kernels ride through hot-path-hygiene.

def test_generated_kernels_pass_hot_path_hygiene():
    report = run_lint(PACKAGE_ROOT,
                      LintOptions(rules=["hot-path-hygiene"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_check_function_flags_kernel_style_violations():
    # The module-level checker used for generated source: a try block
    # and a twice-resolved loop-invariant chain are both findings; the
    # same chain on a base rebound inside the loop is not (the hoist
    # advice would be wrong — `file` names a new object per iteration).
    code = (
        "def kern(pipeline):\n"
        "    for inst in pipeline.window:\n"
        "        try:\n"
        "            a = pipeline.mem.table[inst.addr]\n"
        "        except KeyError:\n"
        "            a = None\n"
        "        b = pipeline.mem.table[0]\n"
        "        file = pipeline.files[inst.klass]\n"
        "        file._free.append(inst.old)\n"
        "        file._free.append(inst.dest)\n"
    )
    node = ast.parse(code).body[0]
    findings = check_function("hot-path-hygiene", "core/kernel_gen.py",
                              "generated kernel [test] kern", node)
    messages = [f.message for f in findings]
    assert any("try block" in m for m in messages)
    assert any("pipeline.mem.table" in m for m in messages)
    assert not any("file._free" in m for m in messages)


# ---------------------------------------------------------------------------
# CLI surface: unknown rules, re-pin reporting, JSON summary.

def test_unknown_rule_exits_2_and_lists_rules(capsys):
    assert lint_main(["--rules", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown lint rule 'no-such-rule'" in err
    for name in ("tier-sync", "horizon-purity", "hot-path-hygiene",
                 "salt-fingerprint"):
        assert name in err


def test_accept_fingerprints_names_repinned_modules(package_copy, capsys):
    # A semantic edit in exactly one salt-scoped module:
    _edit(package_copy, "core/fu.py",
          "def next_release_cycle(self, now: int) -> int:",
          "def next_release_cycle(self, now: int, _w: int = 0) -> int:")
    assert lint_main(["--root", package_copy, "--rules",
                      "salt-fingerprint", "--accept-fingerprints"]) == 0
    out = capsys.readouterr().out
    assert "re-pinned: core/fu.py" in out
    assert "(1 changed)" in out
    # The report object carries the same names for programmatic callers.
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"],
                                  accept_fingerprints=True))
    assert report.repinned["changed"] == []


def test_json_summary_reports_rule_stats_and_coverage(capsys):
    assert lint_main(["--rules", "tier-sync,horizon-purity",
                      "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    summary = document["summary"]
    assert set(summary["rules"]) == {"tier-sync", "horizon-purity"}
    for stats in summary["rules"].values():
        assert stats["findings"] == 0
        assert stats["seconds"] >= 0
    coverage = summary["fragment_coverage"]
    assert coverage["fragments"] >= 6
    assert coverage["lines_covered"] > 500
