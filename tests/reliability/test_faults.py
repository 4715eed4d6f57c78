"""Tests for the fault models, campaigns, and the seeded injector."""

import numpy as np
import pytest

from repro.reliability import CAMPAIGNS
from repro.reliability.faults import (
    BiasedSpeculator,
    DramTransferFaults,
    FaultCampaign,
    FaultInjector,
    IMapBitFlips,
    OMapBitFlips,
    StuckAtRows,
    WeightCorruption,
    get_campaign,
)


class TestFaultModelValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="rate"):
            OMapBitFlips(rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            IMapBitFlips(rate=-0.1)
        with pytest.raises(ValueError, match="rate"):
            DramTransferFaults(rate=1.0)  # certain failure never recovers
        with pytest.raises(ValueError, match="miss_rate"):
            BiasedSpeculator(miss_rate=2.0)

    def test_weight_corruption_knobs(self):
        with pytest.raises(ValueError, match="magnitude"):
            WeightCorruption(magnitude=0.0)
        with pytest.raises(ValueError, match="rate"):
            WeightCorruption(rate=-1e-3)

    def test_stuck_rows_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            StuckAtRows(count=-1)


class TestOMapBitFlips:
    def test_flip_count_tracks_rate(self, rng):
        bits = np.ones((64, 32), dtype=np.int64)
        flipped = OMapBitFlips(rate=0.25).corrupt(bits, rng)
        frac = float((flipped != bits).mean())
        assert 0.15 < frac < 0.35

    def test_zero_rate_is_identity(self, rng):
        bits = (rng.random((16, 16)) < 0.5).astype(np.int64)
        out = OMapBitFlips(rate=0.0).corrupt(bits, rng)
        np.testing.assert_array_equal(out, bits)


class TestStuckAtRows:
    def test_keeps_one_row_alive(self, rng):
        rows = StuckAtRows(count=99).pick_rows(16, rng)
        assert len(rows) == 15  # never the whole array

    def test_rows_in_range(self, rng):
        rows = StuckAtRows(count=3).pick_rows(8, rng)
        assert all(0 <= r < 8 for r in rows)
        assert len(rows) == 3


class TestBiasedSpeculator:
    def test_guard_band_absorbs_bias(self):
        fault = BiasedSpeculator(bias=0.2, miss_rate=0.1)
        assert fault.effective_miss_rate(0.0) == pytest.approx(0.1)
        banded = fault.effective_miss_rate(0.2)
        assert banded == pytest.approx(0.05)
        assert fault.effective_miss_rate(1.0) < banded

    def test_zero_bias_never_misses(self):
        fault = BiasedSpeculator(bias=0.0, miss_rate=0.5)
        assert fault.effective_miss_rate(0.0) == 0.0

    def test_only_drops_sensitive_bits(self, rng):
        bits = (rng.random(1000) < 0.5).astype(np.int64)
        out = BiasedSpeculator(bias=1.0, miss_rate=1.0).corrupt(bits, rng)
        assert out.sum() == 0  # every 1 dropped ...
        assert ((bits == 0) <= (out == 0)).all()  # ... and no 0 raised


class TestCampaignRegistry:
    def test_builtins_present(self):
        for name in ("none", "smoke", "severe", "dram-flaky"):
            assert name in CAMPAIGNS

    def test_unknown_campaign_names_choices(self):
        with pytest.raises(ValueError, match="smoke"):
            get_campaign("meltdown")

    def test_by_site(self):
        campaign = get_campaign("smoke")
        assert all(f.site == "dram" for f in campaign.by_site("dram"))
        assert campaign.by_site("dram")


class TestFaultInjector:
    def test_deterministic_from_seed(self):
        omap = np.ones((8, 10, 10), dtype=np.int64)
        a = FaultInjector(get_campaign("omap-flips"), seed=5).corrupt_omap(omap, 3)
        b = FaultInjector(get_campaign("omap-flips"), seed=5).corrupt_omap(omap, 3)
        np.testing.assert_array_equal(a, b)

    def test_layers_draw_independent_streams(self):
        omap = np.ones((8, 10, 10), dtype=np.int64)
        inj = FaultInjector(get_campaign("omap-flips"), seed=5)
        assert not np.array_equal(
            inj.corrupt_omap(omap, 0), inj.corrupt_omap(omap, 1)
        )

    def test_injected_counter_accumulates(self):
        inj = FaultInjector(get_campaign("omap-flips"), seed=0)
        omap = np.ones((8, 10, 10), dtype=np.int64)
        inj.corrupt_omap(omap, 0)
        inj.corrupt_imap(omap, 0)
        assert inj.injected["omap"] > 0
        assert inj.injected["imap"] > 0
        assert inj.total_injected == sum(inj.injected.values())

    def test_weight_fault_count_deterministic(self):
        inj1 = FaultInjector(get_campaign("weight-mem"), seed=2)
        inj2 = FaultInjector(get_campaign("weight-mem"), seed=2)
        assert inj1.weight_fault_count(100_000, 4) == inj2.weight_fault_count(
            100_000, 4
        )
        assert inj1.injected["weights"] > 0

    def test_none_campaign_is_transparent(self, rng):
        inj = FaultInjector(get_campaign("none"), seed=0)
        omap = (rng.random((4, 6, 6)) < 0.5).astype(np.int64)
        np.testing.assert_array_equal(inj.corrupt_omap(omap, 0), omap)
        assert inj.dram_fault_stream() is None
        assert inj.stuck_rows(16) == frozenset()
        assert inj.total_injected == 0

    def test_dram_fault_stream_draws(self):
        """The channel fails at the campaign's rate, seeded per run."""
        campaign = get_campaign("dram-flaky")
        stream = FaultInjector(campaign, seed=0).dram_fault_stream()
        twin = FaultInjector(campaign, seed=0).dram_fault_stream()
        assert stream.rate == 0.15
        draws = [stream.fails() for _ in range(200)]
        assert all(isinstance(d, bool) for d in draws)
        assert draws == [twin.fails() for _ in range(200)]
        assert 0 < sum(draws) < 200

    def test_composed_campaign(self, rng):
        campaign = FaultCampaign(
            "both",
            "omap flips and stuck rows together",
            (OMapBitFlips(rate=0.5), StuckAtRows(count=2)),
        )
        inj = FaultInjector(campaign, seed=1)
        omap = np.ones((8, 8), dtype=np.int64)
        assert (inj.corrupt_omap(omap, 0) != omap).any()
        assert len(inj.stuck_rows(16)) == 2
