"""The ``repro bench`` harness (cells, reports, regression checks)."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro import bench
from repro.cli import main


TINY_CELL = bench.BenchCell("tiny-stall", "MEM2", ("art", "mcf"),
                            "stall", trace_len=300)


class TestMatrix:
    def test_quick_is_a_subset_with_the_headline(self):
        full = {cell.id for cell in bench.bench_cells()}
        quick = {cell.id for cell in bench.bench_cells(quick=True)}
        assert quick < full
        assert bench.HEADLINE_CELL in quick

    def test_matrix_covers_thread_counts_and_policies(self):
        cells = bench.bench_cells()
        assert {cell.threads for cell in cells} == {1, 2, 4}
        assert {cell.policy for cell in cells} >= {"icount", "stall",
                                                   "flush", "rat"}
        assert len({cell.id for cell in cells}) == len(cells)


class TestTiming:
    def test_time_cell_fields(self):
        timed = bench.time_cell(TINY_CELL, repeats=1)
        assert timed["seconds"] > 0
        assert timed["cycles"] > 0
        assert timed["committed"] > 0
        assert 0 <= timed["skipped_cycles"] <= timed["cycles"]

    def test_noskip_mode_never_skips(self):
        timed = bench.time_cell(TINY_CELL, cycle_skip=False, repeats=1)
        assert timed["skipped_cycles"] == 0
        assert timed["skip_jumps"] == 0

    def test_calibration_positive(self):
        assert bench.calibrate(repeats=1) > 0


class TestReports:
    @pytest.fixture()
    def report(self, monkeypatch):
        monkeypatch.setattr(bench, "BENCH_CELLS", (TINY_CELL,))
        monkeypatch.setattr(bench, "tree_dirty", lambda: False)
        monkeypatch.setenv(bench.REV_ENV_VAR, "testrev")
        return bench.run_bench(repeats=1)

    def test_report_shape(self, report):
        assert report["schema"] == bench.BENCH_SCHEMA
        assert report["revision"] == "testrev"
        entry = report["cells"]["tiny-stall"]
        assert entry["policy"] == "stall"
        assert entry["normalized"] == pytest.approx(
            entry["seconds"] / report["calibration_seconds"])
        assert "speedup_vs_noskip" in entry
        assert "tiny-stall" in bench.render_report(report)

    def test_write_and_load_roundtrip(self, report, tmp_path):
        path = bench.write_report(report, str(tmp_path / "BENCH_x.json"))
        assert bench.load_report(path) == json.loads(
            json.dumps(report))

    def test_default_report_name_uses_revision(self, report, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = bench.write_report(report)
        assert path == "BENCH_testrev.json"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            bench.load_report(str(path))

    def test_check_passes_within_tolerance(self, report):
        reference = json.loads(json.dumps(report))
        assert bench.check_report(report, reference, tolerance=2.0) == []

    def test_check_flags_regressions(self, report):
        reference = json.loads(json.dumps(report))
        reference["cells"]["tiny-stall"]["normalized"] /= 10.0
        failures = bench.check_report(report, reference, tolerance=2.0)
        assert len(failures) == 1
        assert "tiny-stall" in failures[0]

    def test_check_ignores_unknown_cells(self, report):
        assert bench.check_report(report, {"cells": {}}, 2.0) == []

    def test_compare_summary_reports_speedup(self, report):
        reference = json.loads(json.dumps(report))
        reference["cells"]["tiny-stall"]["normalized"] *= 4.0
        lines = bench.compare_summary(report, reference)
        assert len(lines) == 1 and "4.00x" in lines[0]

    def test_compare_summary_warns_on_missing_cells(self, report):
        """A reference recorded before a cell existed (or a quick run
        diffed against a full report) warns per side and diffs the
        intersection — never a lookup error."""
        reference = json.loads(json.dumps(report))
        reference["cells"]["retired-cell"] = dict(
            reference["cells"]["tiny-stall"])
        del reference["cells"]["tiny-stall"]
        lines = bench.compare_summary(report, reference)
        assert any("tiny-stall" in line and "absent" in line
                   for line in lines)
        assert any("retired-cell" in line and "not in this run" in line
                   for line in lines)
        assert not any("x vs reference" in line for line in lines)

    def test_render_tolerates_pre_speculation_reports(self, report):
        """Reports recorded by older harness versions, which carried
        per-cell columns this version no longer writes and no dirty
        flag, still render."""
        legacy = json.loads(json.dumps(report))
        del legacy["dirty"]
        legacy["cells"]["tiny-stall"]["retired_column"] = 0
        assert "tiny-stall" in bench.render_report(legacy)
        assert bench.revision_label(legacy) == "testrev"

    def test_dirty_tree_is_stamped(self, report, tmp_path, monkeypatch):
        """A report timed on a dirty ``src/`` says so in its header and
        file name."""
        assert report["dirty"] is False
        dirty = dict(report, dirty=True)
        assert bench.render_report(dirty).startswith(
            "repro bench @ testrev-dirty ")
        monkeypatch.chdir(tmp_path)
        assert bench.write_report(dirty) == "BENCH_testrev-dirty.json"

    def test_tree_dirty_reads_git_status(self, monkeypatch):
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, " M src/x.py\n", "")

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        assert bench.tree_dirty() is True
        assert calls == [["git", "status", "--porcelain", "--", "."]]
        monkeypatch.setattr(
            bench.subprocess, "run",
            lambda argv, **kwargs: subprocess.CompletedProcess(
                argv, 0, "", ""))
        assert bench.tree_dirty() is False
        monkeypatch.setattr(
            bench.subprocess, "run",
            lambda argv, **kwargs: subprocess.CompletedProcess(
                argv, 128, "", "not a git repository"))
        assert bench.tree_dirty() is None


class TestBenchCli:
    def test_cli_runs_and_checks(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "BENCH_CELLS", (TINY_CELL,))
        monkeypatch.setenv(bench.REV_ENV_VAR, "clirev")
        out_path = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--repeats", "1", "--no-noskip",
                     "--output", str(out_path)]) == 0
        report = bench.load_report(str(out_path))
        assert "tiny-stall" in report["cells"]
        assert "speedup_vs_noskip" not in report["cells"]["tiny-stall"]

        # A second run checked against the first must be within 2x.
        second = tmp_path / "BENCH_cli2.json"
        assert main(["bench", "--repeats", "1", "--no-noskip",
                     "--output", str(second),
                     "--check", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "check ok" in captured.out
        # Both sides' revisions (with any dirty suffix) are named.
        assert f"[check] this run @ clirev" in captured.out
        assert f"{out_path} @ clirev" in captured.out

    def test_cli_check_failure_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "BENCH_CELLS", (TINY_CELL,))
        monkeypatch.setenv(bench.REV_ENV_VAR, "clirev")
        doctored = {
            "schema": bench.BENCH_SCHEMA, "revision": "doctored",
            "quick": False, "repeats": 1, "python": "3",
            "calibration_seconds": 1.0,
            "cells": {"tiny-stall": {"normalized": 1e-9,
                                     "seconds": 1e-9}},
        }
        baseline_path = tmp_path / "BENCH_doctored.json"
        baseline_path.write_text(json.dumps(doctored))
        assert main(["bench", "--repeats", "1", "--no-noskip",
                     "--output", str(tmp_path / "out.json"),
                     "--check", str(baseline_path)]) == 1

    def test_cli_rejects_missing_baseline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "BENCH_CELLS", (TINY_CELL,))
        assert main(["bench", "--repeats", "1", "--no-noskip",
                     "--output", str(tmp_path / "out.json"),
                     "--check", str(tmp_path / "missing.json")]) == 2
