"""Property-style tests of the reliability contract.

The contract under test (paper Section III-C, applied to faults):

1. With guards enabled, **no fault campaign ever corrupts a computed
   value** -- faults may cost cycles (retries, dense fallbacks, lower
   ladder rungs) or accuracy (missed sensitive outputs), never the values
   the Executor produced.  Checked both analytically (value-hazard
   accounting across the real pipelines) and functionally (MAC-level
   probe against a clean dense reference).
2. **Degradation is monotone**: more faults can never yield a *higher*
   final ladder rung, and any run converges within one model pass.
3. Every campaign is a **pure function of its seed**.
"""

import numpy as np
import pytest

from repro.reliability import CAMPAIGNS, GuardSettings, run_fault_campaign
from repro.reliability.degrade import DEGRADATION_LADDER
from repro.reliability.faults import (
    BiasedSpeculator,
    FaultCampaign,
    OMapBitFlips,
)
from repro.reliability.runner import run_functional_probe

ALL_CAMPAIGNS = sorted(CAMPAIGNS)


def _rung(stage: str) -> int:
    return DEGRADATION_LADDER.index(stage)


class TestValuesNeverCorruptedWithGuards:
    @pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
    def test_functional_probe_exact(self, campaign):
        """MAC-level: every computed position equals the clean reference."""
        probe = run_functional_probe(campaign, seed=0)
        assert not probe.values_corrupted
        assert probe.positions_checked > 0

    @pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
    def test_analytical_run_hazard_free(self, campaign):
        """Pipeline-level: the per-layer value-hazard account stays zero."""
        report = run_fault_campaign("alexnet", campaign, seed=0)
        assert report.reliability.values_never_corrupted
        assert report.invariant_held

    def test_rnn_pipeline_hazard_free(self):
        report = run_fault_campaign("lstm", "severe", seed=0)
        assert report.reliability.values_never_corrupted

    @pytest.mark.parametrize("campaign", ("smoke", "severe", "weight-mem"))
    def test_unguarded_foil_corrupts(self, campaign):
        """Without guards the same campaigns demonstrably corrupt values --
        the asymmetry that proves the guards are doing the work."""
        off = GuardSettings(enabled=False)
        report = run_fault_campaign("alexnet", campaign, seed=0, guards=off)
        assert report.reliability.total_value_hazards > 0
        probe = run_functional_probe(campaign, seed=0, guards=off)
        assert probe.values_corrupted


class TestDegradationMonotone:
    def test_more_map_flips_never_raise_the_final_stage(self):
        rates = (0.0, 0.02, 0.3)
        finals = []
        for rate in rates:
            campaign = FaultCampaign(
                f"flips-{rate}", "scaled", (OMapBitFlips(rate=rate),)
            )
            rep = run_fault_campaign("alexnet", campaign, seed=0)
            finals.append(_rung(rep.reliability.final_stage))
        assert finals == sorted(finals)
        assert finals[0] == _rung("DUET")  # no faults, no degradation

    def test_more_speculator_bias_never_raises_the_final_stage(self):
        finals = []
        for bias, miss in ((0.0, 0.0), (0.3, 0.15), (1.0, 0.6)):
            campaign = FaultCampaign(
                f"bias-{bias}",
                "scaled",
                (BiasedSpeculator(bias=bias, miss_rate=miss),),
            )
            rep = run_fault_campaign("alexnet", campaign, seed=0)
            finals.append(_rung(rep.reliability.final_stage))
        assert finals == sorted(finals)

    @pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
    def test_converges_within_one_pass(self, campaign):
        """The stage is stable after at most len(ladder) - 1 transitions,
        all of which happen inside a single model pass."""
        rep = run_fault_campaign("alexnet", campaign, seed=0)
        events = rep.reliability.events
        assert len(events) <= len(DEGRADATION_LADDER) - 1
        # transitions walk the ladder strictly downward, one rung at a time
        for event in events:
            assert _rung(event.to_stage) == _rung(event.from_stage) + 1

    def test_layers_record_the_stage_they_ran_at(self):
        rep = run_fault_campaign("alexnet", "severe", seed=0)
        stages = [_rung(layer.stage) for layer in rep.reliability.layers]
        assert stages == sorted(stages)  # never back up the ladder
        assert rep.reliability.layers[-1].stage == rep.reliability.final_stage


class TestDeterminism:
    @pytest.mark.parametrize("campaign", ("smoke", "severe"))
    def test_same_seed_bitwise_identical_report(self, campaign):
        a = run_fault_campaign("alexnet", campaign, seed=11)
        b = run_fault_campaign("alexnet", campaign, seed=11)
        assert a.format() == b.format()
        assert a.reliability.total_injected == b.reliability.total_injected

    def test_different_seed_different_faults(self):
        a = run_fault_campaign("alexnet", "smoke", seed=1)
        b = run_fault_campaign("alexnet", "smoke", seed=2)
        assert a.reliability.total_injected != b.reliability.total_injected


class TestReportAccounting:
    def test_none_campaign_is_a_clean_run(self):
        rep = run_fault_campaign("alexnet", "none", seed=0)
        r = rep.reliability
        assert r.total_injected == {}
        assert r.total_recovery_actions == 0
        assert r.quality_retained == 1.0
        assert r.final_stage == "DUET"

    def test_quality_retained_bounded(self):
        for campaign in ("smoke", "speculator-bias"):
            r = run_fault_campaign("alexnet", campaign, seed=0).reliability
            assert 0.0 <= r.quality_retained <= 1.0

    def test_guarded_recoveries_reported(self):
        r = run_fault_campaign("alexnet", "weight-mem", seed=0).reliability
        assert r.total_recovery_actions > 0
        assert r.total_injected.get("weights", 0) > 0

    def test_dram_retries_surface_in_report(self):
        r = run_fault_campaign("resnet18", "dram-flaky", seed=0).reliability
        assert r.total_dram_retries > 0

    def test_degradation_to_base_stops_speculation_faults(self):
        """Once at BASE the Speculator is out of the loop: later layers
        must not record speculator/map faults."""
        r = run_fault_campaign("alexnet", "severe", seed=0).reliability
        base_layers = [layer for layer in r.layers if layer.stage == "BASE"]
        assert base_layers, "severe campaign must reach BASE on alexnet"
        for layer in base_layers:
            assert "speculator" not in layer.injected
            assert "omap" not in layer.injected
