"""Tests for the hardware configuration and evaluation stages."""

import dataclasses

import pytest

from repro.sim.config import STAGES, DuetConfig, stage_config


class TestDuetConfig:
    def test_paper_defaults(self):
        cfg = DuetConfig()
        assert cfg.num_pes == 256
        assert cfg.speculator_macs_per_cycle == 16 * 32
        assert cfg.glb_bytes == 1 << 20
        assert cfg.clock_hz == 1e9

    def test_cycles_to_ms(self):
        cfg = DuetConfig()
        assert cfg.cycles_to_ms(1_000_000) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            DuetConfig(executor_rows=0)
        with pytest.raises(ValueError, match="positive"):
            DuetConfig(glb_bytes=-1)

    def test_error_names_field_and_value(self):
        """Validation messages say which field broke and what it held."""
        with pytest.raises(ValueError, match=r"executor_rows.*0"):
            DuetConfig(executor_rows=0)
        with pytest.raises(ValueError, match=r"speculator_cols.*-3"):
            DuetConfig(speculator_cols=-3)

    def test_array_geometry_must_be_power_of_two(self):
        for field in (
            "executor_rows",
            "executor_cols",
            "speculator_rows",
            "speculator_cols",
        ):
            with pytest.raises(ValueError, match=f"{field}.*power of two"):
                DuetConfig(**{field: 12})
        # powers of two build fine at any scale
        DuetConfig(executor_rows=4, executor_cols=64)

    def test_frozen(self):
        cfg = DuetConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.executor_rows = 8

    def test_scaled_speculator(self):
        cfg = DuetConfig()
        small = cfg.scaled_speculator(8, 8)
        assert small.speculator_macs_per_cycle == 64
        # supporting throughput scales with the MAC ratio (64/512 = 1/8)
        assert small.quantizer_throughput == pytest.approx(
            cfg.quantizer_throughput / 8, abs=1
        )
        big = cfg.scaled_speculator(32, 32)
        assert big.speculator_macs_per_cycle == 1024
        assert big.mfu_throughput >= cfg.mfu_throughput


class TestStageConfig:
    def test_all_stages_build(self):
        for stage in STAGES:
            cfg = stage_config(stage)
            assert isinstance(cfg, DuetConfig)

    def test_base_disables_everything(self):
        cfg = stage_config("BASE")
        assert not cfg.enable_output_switching
        assert not cfg.enable_input_switching
        assert not cfg.enable_adaptive_mapping

    def test_os_output_only(self):
        cfg = stage_config("OS")
        assert cfg.enable_output_switching
        assert not cfg.enable_input_switching
        assert not cfg.enable_adaptive_mapping

    def test_bos_adds_adaptive(self):
        cfg = stage_config("BOS")
        assert cfg.enable_adaptive_mapping
        assert not cfg.enable_input_switching

    def test_ios_adds_input(self):
        cfg = stage_config("IOS")
        assert cfg.enable_input_switching
        assert not cfg.enable_adaptive_mapping

    def test_duet_enables_all(self):
        cfg = stage_config("DUET")
        assert cfg.enable_output_switching
        assert cfg.enable_input_switching
        assert cfg.enable_adaptive_mapping

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            stage_config("TURBO")

    def test_derives_from_base_config(self):
        base = DuetConfig(executor_rows=8, executor_cols=8)
        cfg = stage_config("DUET", base)
        assert cfg.executor_rows == 8
