"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.cli import build_parser, main, make_engine, make_spec
from repro.sim.executors import ProcessPoolBackend, SerialBackend
from repro.sim.manifest import CampaignManifest, ShardSpec
from repro.sim.runner import RunSpec
from repro.sim.store import DiskStore

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
    """``--jobs`` alone picks the backend."""

    @pytest.mark.parametrize("jobs,backend,workers", [
        ("1", SerialBackend, 1),
        ("3", ProcessPoolBackend, 3),
        ("0", ProcessPoolBackend, os.cpu_count() or 1),
    ], ids=["serial", "process-3", "process-auto"])
    def test_jobs_picks_executor(self, jobs, backend, workers):
        engine = make_engine(build_parser().parse_args(
            ["figure1", "--jobs", jobs]))
        assert type(engine.backend) is backend
        assert engine.backend.jobs == workers

    def test_bad_shard_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--shard", "4/2"])

    def test_jobs_output_matches_serial(self, capsys):
        def table_lines(text):
            # Everything except the timing status line, which varies.
            return [line for line in text.splitlines()
                    if not line.startswith("[figure1 regenerated")]

        outputs = []
        for jobs in ("1", "2", "0"):
            assert main(["figure1", *TINY_ARGS, "--no-progress",
                         "--jobs", jobs]) == 0
            outputs.append(table_lines(capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]


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
    def test_shard_simulates_exactly_its_slice(self, tmp_path, capsys):
        assert main(["plan", "figure1", *TINY_ARGS]) == 0
        manifest = CampaignManifest.from_json(capsys.readouterr().out)
        owned = manifest.filter_shard(ShardSpec(1, 2))
        assert 0 < len(owned) < len(manifest)
        cache = str(tmp_path / "cache")
        assert main(["figure1", *TINY_ARGS, "--no-progress",
                     "--shard", "1/2", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert sorted(entry.key for entry in DiskStore(cache).entries()) \
            == sorted(owned.keys())
        assert re.fullmatch(
            rf"\[figure1 shard 1/2: executed {len(owned)} of "
            rf"{len(manifest)} cells \| simulated={len(owned)}, "
            rf"cache_hits=0, other_shards={len(manifest) - len(owned)} "
            rf"\| \d+\.\ds\]\n", out)

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
