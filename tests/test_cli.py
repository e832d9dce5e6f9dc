"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, make_engine, make_spec
from repro.sim.executors import (ShardSpec, ShardedExecutor,
                                 ThreadPoolBackend)
from repro.sim.manifest import CampaignManifest
from repro.sim.runner import RunSpec

TINY_ARGS = ["--trace-len", "300", "--workloads-per-class", "1",
             "--classes", "MEM2"]


class TestParser:
    def test_accepts_exhibits(self):
        parser = build_parser()
        args = parser.parse_args(["figure1"])
        assert args.exhibit == "figure1"

    def test_rejects_unknown_exhibit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_options(self):
        args = build_parser().parse_args(
            ["figure6", "--trace-len", "500", "--seed", "9",
             "--workloads-per-class", "2", "--classes", "MEM2", "MEM4"])
        assert args.trace_len == 500
        assert args.seed == 9
        assert args.workloads_per_class == 2
        assert args.classes == ["MEM2", "MEM4"]

    def test_make_spec_overrides(self):
        args = build_parser().parse_args(["table1", "--trace-len", "123"])
        spec = make_spec(args)
        assert isinstance(spec, RunSpec)
        assert spec.trace_len == 123


class TestMain:
    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Perceptron" in out

    def test_figure1_tiny(self, capsys):
        code = main(["figure1", "--trace-len", "300",
                     "--workloads-per-class", "1", "--classes", "ILP2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "regenerated" in out


class TestBackendFlag:
    def test_thread_backend_selected(self):
        args = build_parser().parse_args(
            ["figure1", "--backend", "thread", "--jobs", "3"])
        backend = make_engine(args).backend
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.jobs == 3

    def test_shard_wraps_backend(self, tmp_path):
        args = build_parser().parse_args(
            ["figure1", "--shard", "2/4", "--jobs", "2",
             "--cache-dir", str(tmp_path)])
        backend = make_engine(args).backend
        assert isinstance(backend, ShardedExecutor)
        assert backend.shard == ShardSpec(2, 4)

    def test_bad_shard_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--shard", "4/2"])

    def test_thread_backend_output_matches_serial(self, capsys):
        def table_lines(text):
            # Everything except the timing status line, which varies.
            return [line for line in text.splitlines()
                    if not line.startswith("[figure1 regenerated")]

        assert main(["figure1", *TINY_ARGS, "--no-progress"]) == 0
        serial = capsys.readouterr().out
        assert main(["figure1", *TINY_ARGS, "--no-progress",
                     "--backend", "thread", "--jobs", "2"]) == 0
        threaded = capsys.readouterr().out
        assert table_lines(serial) == table_lines(threaded)


class TestPlanSubcommand:
    def test_plan_round_trips(self, capsys):
        assert main(["plan", "figure1", *TINY_ARGS]) == 0
        out = capsys.readouterr().out
        manifest = CampaignManifest.from_json(out)
        assert manifest.to_json() == out
        assert [plan.name for plan in manifest.exhibits] == ["figure1"]
        assert len(manifest) > 0

    def test_plan_all_covers_every_exhibit(self, capsys):
        assert main(["plan", "all", *TINY_ARGS]) == 0
        captured = capsys.readouterr()
        manifest = CampaignManifest.from_json(captured.out)
        assert len(manifest.exhibits) == 8
        assert "campaign manifest" in captured.err  # summary on stderr

    def test_plan_shard_slice(self, capsys):
        assert main(["plan", "all", *TINY_ARGS]) == 0
        full = CampaignManifest.from_json(capsys.readouterr().out)
        keys = []
        for k in (1, 2):
            assert main(["plan", "all", *TINY_ARGS,
                         "--shard", f"{k}/2"]) == 0
            piece = CampaignManifest.from_json(capsys.readouterr().out)
            assert piece.shard == f"{k}/2"
            keys.extend(piece.keys())
        assert sorted(keys) == sorted(full.keys())

    def test_plan_output_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["plan", "figure1", *TINY_ARGS,
                     "--output", str(path)]) == 0
        capsys.readouterr()
        manifest = CampaignManifest.from_json(path.read_text())
        assert len(manifest) > 0

    def test_plan_executes_nothing(self, capsys):
        # Planning 'all' at full default scale must return immediately —
        # it would take minutes if any cell were simulated.
        assert main(["plan", "all"]) == 0
        manifest = CampaignManifest.from_json(capsys.readouterr().out)
        assert len(manifest) > 100

    def test_plan_is_deterministic(self, capsys):
        assert main(["plan", "all", *TINY_ARGS]) == 0
        first = capsys.readouterr().out
        assert main(["plan", "all", *TINY_ARGS]) == 0
        assert capsys.readouterr().out == first


class TestShardExecuteOnly:
    def test_shard_renders_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["figure1", *TINY_ARGS, "--no-progress",
                     "--shard", "1/2", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "Throughput" not in out     # no exhibit output
        assert "shard 1/2" in out
        assert "executed" in out

    def test_shard_json_format_keeps_stdout_clean(self, tmp_path,
                                                  capsys):
        cache = str(tmp_path / "cache")
        assert main(["figure1", *TINY_ARGS, "--no-progress", "--format",
                     "json", "--shard", "1/2", "--cache-dir",
                     cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""          # status went to stderr
        assert "shard 1/2" in captured.err
