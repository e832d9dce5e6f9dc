"""Tests for repro.config."""

import dataclasses

import pytest

from repro.config import CacheConfig, SMTConfig, baseline, min_registers_for
from repro.errors import ConfigError


class TestCacheConfig:
    def test_table1_dcache_geometry(self):
        cache = CacheConfig(64 * 1024, 4, 64, 3)
        assert cache.num_lines == 1024
        assert cache.num_sets == 256

    def test_table1_l2_geometry(self):
        cache = CacheConfig(1024 * 1024, 8, 64, 20)
        assert cache.num_lines == 16384
        assert cache.num_sets == 2048

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(3 * 1024, 1, 64, 1).validate("x")

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 2, 64, 1).validate("x")

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(4096, 2, 64, -1).validate("x")

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 2, 64, 1).validate("x")


class TestSMTConfigValidation:
    def test_baseline_is_valid(self):
        baseline()

    def test_baseline_matches_table1(self):
        config = baseline()
        assert config.pipeline_depth == 10
        assert config.width == 8
        assert config.rob_size == 512
        assert config.int_regs == 320 and config.fp_regs == 320
        assert (config.int_iq_size, config.fp_iq_size,
                config.ls_iq_size) == (64, 64, 64)
        assert (config.int_units, config.fp_units,
                config.ldst_units) == (6, 3, 4)
        assert config.memory_latency == 400
        assert config.l2.line_bytes == 64

    @pytest.mark.parametrize("field,value", [
        ("pipeline_depth", 2),
        ("width", 0),
        ("rob_size", 4),
        ("int_regs", 32),
        ("fp_regs", 16),
        ("int_iq_size", 0),
        ("memory_latency", 0),
        ("mshr_entries", 0),
        ("fetch_threads", 0),
        ("redirect_penalty", -1),
        ("long_latency_threshold", 0),
        ("hill_delta", 1.5),
        ("hill_min_share", 0.9),
        ("dcra_slow_weight", 0.5),
    ])
    def test_rejects_bad_field(self, field, value):
        config = dataclasses.replace(SMTConfig(), **{field: value})
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("field", [
        "hill_epoch_cycles", "dcra_sample_interval",
        "mlp_predictor_entries", "btb_entries",
    ])
    def test_rejects_zero_knob(self, field):
        # Each of these used to pass validate() and then fail mid-run
        # (a division by zero in its policy, or the BTB constructor).
        # Configs read back from a manifest reach validate() through
        # from_dict, so check that path.
        data = dict(SMTConfig().to_dict(), **{field: 0})
        with pytest.raises(ConfigError, match=field):
            SMTConfig.from_dict(data).validate()

    def test_rejects_mismatched_line_sizes(self):
        config = dataclasses.replace(
            SMTConfig(), icache=CacheConfig(64 * 1024, 4, 32, 1))
        with pytest.raises(ConfigError):
            config.validate()

    def test_rejects_zero_latency_dcache(self):
        # A 1-thread mcf cell with a zero-latency D-cache used to pass
        # validate() and then run to its cycle cap without a commit; one
        # cycle is the smallest latency the event table can complete.
        from repro.core.processor import SMTProcessor
        from repro.trace.generator import generate_trace

        def config(latency):
            return dataclasses.replace(
                baseline(), max_cycles=50_000,
                dcache=dataclasses.replace(baseline().dcache,
                                           latency=latency))
        with pytest.raises(ConfigError, match="dcache.latency"):
            config(0).validate()
        result = SMTProcessor(config(1).validate(),
                              [generate_trace("mcf", 1000, 1)]).run()
        assert not result.truncated
        assert result.thread_stats[0].committed >= 1000


class TestSMTConfigHelpers:
    def test_with_policy(self):
        config = baseline().with_policy("rat")
        assert config.policy == "rat"
        assert baseline().policy == "icount"

    def test_with_policy_overrides(self):
        config = baseline().with_policy("rat", rat_prefetch=False)
        assert config.rat_prefetch is False

    def test_with_registers_both_files(self):
        config = baseline().with_registers(128)
        assert config.int_regs == 128 and config.fp_regs == 128

    def test_with_registers_asymmetric(self):
        config = baseline().with_registers(128, 192)
        assert config.int_regs == 128 and config.fp_regs == 192

    def test_max_threads_baseline(self):
        # 320 registers: (320-16)//32 = 9 contexts' architectural state.
        assert baseline().max_threads() == 9

    def test_max_threads_small_file(self):
        assert baseline().with_registers(96).max_threads() == 2

    def test_min_registers_for(self):
        assert min_registers_for(2) == 80
        assert min_registers_for(4) == 144

    def test_min_registers_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            min_registers_for(0)

    def test_config_is_hashable(self):
        assert hash(baseline()) == hash(baseline())

    def test_table1_rows_cover_every_parameter(self):
        rows = dict(baseline().table1_rows())
        assert rows["Reorder buffer size"] == "512 shared entries"
        assert rows["INT/FP registers"] == "320 / 320"
        assert rows["L2 Cache"].startswith("1 MB")
        assert rows["Main memory latency"] == "400 cycles"
        assert len(rows) == 12
