"""Tests for the derived kernel tier's static gates and horizon purity.

The kernel tier is derived from the python tier's source (see
:mod:`repro.core.kernel_gen`), so there is no mirror to keep in sync:
an edit to a pipeline hot path (or to ``DynInst.__init__``, which fetch
builds in place) must show up in every derived kernel, and an edit that
stops a declared derivation op from matching must fail loudly, naming
the op, the stage and the source line.
Seeded edits run against full copies of the real package, and the
derivation reads the copied tree, not the installed package.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil

import pytest

import repro
from repro.analysis import LintOptions, run_lint
from repro.analysis.cli import lint_main
from repro.analysis.hotpath import (COVERAGE_CLASSES, check_function,
                                    generated_kernels)
from repro.core import kernel_gen
from repro.core import pipeline as pipeline_module
from repro.core.kernel_gen import DerivationError, kernel_source

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Every helper some derived kernel inlines (``DynInst.__init__`` is the
#: class fetch builds in place): none may survive as a call.
INLINED_HELPERS = frozenset(callee for _caller, callee in kernel_gen._INLINE)

FULL_KEY = dict(COVERAGE_CLASSES)["full"]


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
# Derived, not transcribed.

def test_source_edit_flows_into_derived_kernel(package_copy):
    # One semantic line in the fetch hot loop, with no other edit: the
    # kernel derived from the copied tree carries it.
    old = ("            append(inst)\n"
           "            count += 1\n")
    _edit(package_copy, "core/pipeline.py", old,
          old.replace("count += 1", "count += 2"))
    before = kernel_source(FULL_KEY)
    after = kernel_source(FULL_KEY, package_copy)
    assert "count += 2" not in before and "count += 1" in before
    assert "count += 2" in after and "count += 1" not in after


def test_broken_declared_op_names_op_stage_and_line(package_copy):
    # The commit call site no longer has the declared shape.
    site = "        budget = self._commit_thread(thread, now, budget)\n"
    _edit(package_copy, "core/pipeline.py", site,
          site.replace("budget)\n", "budget) + 0\n"))
    with pytest.raises(DerivationError) as excinfo:
        kernel_source(FULL_KEY, package_copy)
    message = str(excinfo.value)
    line = _def_line(package_copy, "    def _commit_stage(")
    assert "inline SMTPipeline._commit_thread into " \
           "SMTPipeline._commit_stage" in message
    assert "matched 0 sites, declared 1" in message
    assert "stage commit" in message
    assert f"core/pipeline.py:{line}" in message
    # repro lint reports it through hot-path-hygiene.
    report = run_lint(package_copy, LintOptions(rules=["hot-path-hygiene"]))
    assert report.exit_code() == 1
    assert any("_commit_thread" in f.message for f in report.findings)


def test_changed_return_flow_fails_loudly(package_copy):
    # A new early return in an inlined helper: its declared flow no
    # longer covers every return.
    _edit(package_copy, "core/pipeline.py",
          "        stats = thread.stats\n"
          "        # The mode is stable across the loop",
          "        stats = thread.stats\n"
          "        if budget > 1000:\n"
          "            return budget\n"
          "        # The mode is stable across the loop")
    with pytest.raises(DerivationError) as excinfo:
        kernel_source(FULL_KEY, package_copy)
    message = str(excinfo.value)
    assert "has 5 exits, the declared flow covers 4" in message
    line = _def_line(package_copy, "    def _commit_thread(")
    assert f"core/pipeline.py:{line}" in message and "stage commit" \
        in message


def test_dyninst_init_edit_flows_into_derived_fetch(package_copy):
    # Fetch builds each DynInst in place from the constructor's source,
    # so an edit to __init__ alone reaches every kernel.
    _edit(package_copy, "core/dyninst.py",
          "        self.complete_cycle = -1\n",
          "        self.complete_cycle = -2\n")
    before = kernel_source(FULL_KEY)
    after = kernel_source(FULL_KEY, package_copy)
    assert "inst = _new(DynInst)" in before
    assert "inst.complete_cycle = -1" in before
    assert "inst.complete_cycle = -2" in after
    assert "inst.complete_cycle = -1" not in after


@pytest.mark.parametrize("old,new,problem", [
    ("        self.mispredicted = False\n",
     "        self.mispredicted = False\n"
     "        if op < 0:\n"
     "            return\n",
     "has 1 exits, the declared flow covers 0"),
    ("    def __init__(",
     "    def __new__(cls, *args):\n"
     "        return object.__new__(cls)\n\n"
     "    def __init__(",
     "has a base or a __new__"),
], ids=["early-return", "own-new"])
def test_broken_construction_names_op_and_dyninst_line(package_copy, old,
                                                       new, problem):
    _edit(package_copy, "core/dyninst.py", old, new)
    with pytest.raises(DerivationError) as excinfo:
        kernel_source(FULL_KEY, package_copy)
    message = str(excinfo.value)
    line = _def_line(package_copy, "    def __init__(", "core/dyninst.py")
    assert "inline DynInst.__init__ into SMTPipeline._fetch_thread" \
        in message
    assert problem in message and "stage fetch" in message
    assert f"core/dyninst.py:{line}" in message


def _kernel_receiver_class(spelling):
    """The class a derived kernel's receiver spelling names, if any."""
    if spelling == "pipeline":
        return "SMTPipeline"
    if re.fullmatch(r"t\d+", spelling):
        return "ThreadContext"
    return kernel_gen._RECEIVERS.get(spelling)


def _called_helpers(source, key):
    """Qualnames of the helpers a kernel calls, matched by receiver and
    method name (``fetch_queue.append`` is a deque's, not the ROB's)."""
    hoisted = {local: spelling for spelling, local
               in kernel_gen._substitutions(key).items()
               if type(local) is str}
    called = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            spelling = hoisted.get(func.id, "")
            if spelling.startswith("pipeline."):
                called.add(f"SMTPipeline.{spelling.split('.', 1)[1]}")
            called.add(f"{func.id}.__init__")
        elif isinstance(func, ast.Attribute):
            owner = _kernel_receiver_class(
                kernel_gen._spelling(func.value) or "")
            if owner is not None:
                called.add(f"{owner}.{func.attr}")
    return called


def test_no_derived_kernel_calls_an_inlined_helper():
    assert {"SharedROB.pop_head", "IssueQueue.is_full", "PhysRegFile.alloc",
            "RenameState.rename_dest", "SMTPipeline._complete",
            "ThreadContext.can_fetch"} <= INLINED_HELPERS
    for label, key, source in generated_kernels(_real_ctx()):
        called = _called_helpers(source, key)
        assert called, label
        assert not called & INLINED_HELPERS, (label,
                                              called & INLINED_HELPERS)


def test_called_helper_matching_is_by_receiver():
    # The matcher sees an inlined helper called on a typed receiver, and
    # tells it apart from a deque or list method of the same name.
    key = FULL_KEY
    source = ("def k(pipeline, rob, fetch_queue, t0):\n"
              "    fetch_queue.append(1)\n"
              "    rob.append(2)\n"
              "    t0.can_fetch(3)\n"
              "    pipeline._complete(4)\n"
              "    DynInst(5)\n")
    assert _called_helpers(source, key) & INLINED_HELPERS == {
        "SharedROB.append", "ThreadContext.can_fetch",
        "SMTPipeline._complete", "DynInst.__init__"}


# ---------------------------------------------------------------------------
# Receiver-typed inlining: each helper is the only copy of its mechanism.

def test_pop_head_edit_flows_into_both_commit_loops(package_copy):
    _edit(package_copy, "core/rob.py",
          "        self._occupancy -= 1\n"
          "        return self._queues[tid].popleft()",
          "        self._occupancy -= 2\n"
          "        return self._queues[tid].popleft()")
    before = kernel_source(FULL_KEY)
    after = kernel_source(FULL_KEY, package_copy)
    # The normal commit loop and the runahead pseudo-retire loop.
    assert before.count("rob._occupancy -= 1") == 2
    assert after.count("rob._occupancy -= 2") == 2
    assert "rob._occupancy -= 1" not in after
    assert "pop_head" not in after


def test_is_full_inlines_its_own_class_body(package_copy):
    before = kernel_source(FULL_KEY)
    rob_test = f"if rob._occupancy >= {FULL_KEY.rob_capacity}:"
    queue_test = "if queue.size >= queue.capacity:"
    assert rob_test in before and queue_test in before
    assert "if not dest_file._free:" in before
    # An edit to IssueQueue.is_full moves only the queue's site.
    _edit(package_copy, "core/issue_queue.py",
          "        return self.size >= self.capacity",
          "        return self.size > self.capacity")
    after = kernel_source(FULL_KEY, package_copy)
    assert rob_test in after
    assert queue_test not in after
    assert "if queue.size > queue.capacity:" in after


def test_undeclared_receiver_names_op_and_line(package_copy):
    call = "        rob.append(inst)\n        inst.state = _DISPATCHED\n"
    _edit(package_copy, "core/pipeline.py", call,
          call.replace("rob.append", "self.rob.append"))
    with pytest.raises(DerivationError) as excinfo:
        kernel_source(FULL_KEY, package_copy)
    message = str(excinfo.value)
    line = _def_line(package_copy, "        self.rob.append(inst)")
    assert "inline SharedROB.append into SMTPipeline._dispatch" in message
    assert "undeclared receiver 'self.rob'" in message
    assert "stage dispatch" in message
    assert f"core/pipeline.py:{line} " in message


def test_diverging_fu_table_fails_the_fold(monkeypatch):
    # The issue stage folds OP_FU_BY_CODE[inst.op] to the queue kind,
    # sound only while the FU and queue tables agree.
    diverging = list(pipeline_module.OP_FU_BY_CODE)
    diverging[0] = (diverging[0] + 1) % 3
    monkeypatch.setattr(pipeline_module, "OP_FU_BY_CODE", tuple(diverging))
    with pytest.raises(DerivationError) as excinfo:
        kernel_source(FULL_KEY)
    message = str(excinfo.value)
    assert "OP_FU_BY_CODE" in message and "stage issue" in message


def _def_line(root, prefix, relpath="core/pipeline.py"):
    path = os.path.join(root, *relpath.split("/"))
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if line.startswith(prefix):
                return number
    raise AssertionError(prefix)


def _real_ctx():
    from repro.analysis.model import LintContext
    return LintContext(PACKAGE_ROOT)


# ---------------------------------------------------------------------------
# Horizon purity.

def test_horizon_purity_clean_on_real_tree():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["horizon-purity"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


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
# Derived kernels ride through hot-path-hygiene.

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
    for name in ("horizon-purity", "hot-path-hygiene", "salt-fingerprint"):
        assert name in err
    assert "tier-sync" not in err


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
    assert lint_main(["--rules", "hot-path-hygiene,horizon-purity",
                      "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    summary = document["summary"]
    assert set(summary["rules"]) == {"hot-path-hygiene", "horizon-purity"}
    for stats in summary["rules"].values():
        assert stats["findings"] == 0
        assert stats["seconds"] >= 0
    assert summary["kernel_classes"] == [label for label, _key
                                         in COVERAGE_CLASSES]
