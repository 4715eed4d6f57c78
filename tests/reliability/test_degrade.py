"""Tests for the degradation ladder and its budget policy."""

import pytest

from repro.reliability.degrade import (
    DEGRADATION_LADDER,
    DegradationBudget,
    DegradationPolicy,
)
from repro.sim.config import STAGES


class TestLadder:
    def test_ladder_is_reversed_stages(self):
        assert DEGRADATION_LADDER == tuple(reversed(STAGES))
        assert DEGRADATION_LADDER[0] == "DUET"
        assert DEGRADATION_LADDER[-1] == "BASE"


class TestBudgetValidation:
    def test_rates_are_probabilities(self):
        with pytest.raises(ValueError, match="max_misspeculation_rate"):
            DegradationBudget(max_misspeculation_rate=1.5)
        with pytest.raises(ValueError, match="max_checksum_failure_rate"):
            DegradationBudget(max_checksum_failure_rate=-0.1)
        with pytest.raises(ValueError, match="max_dram_unrecoverable"):
            DegradationBudget(max_dram_unrecoverable=-1)


class TestDegradationPolicy:
    def test_starts_at_initial_stage(self):
        policy = DegradationPolicy(DegradationBudget(), initial_stage="IOS")
        assert policy.current_stage == "IOS"

    def test_unknown_initial_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            DegradationPolicy(DegradationBudget(), initial_stage="TURBO")

    def test_clean_observations_hold_stage(self):
        policy = DegradationPolicy(DegradationBudget())
        for i in range(10):
            assert policy.observe(f"layer{i}") == "DUET"
        assert policy.events == []

    def test_misspeculation_violation_steps_down_one_rung(self):
        policy = DegradationPolicy(DegradationBudget(max_misspeculation_rate=0.02))
        stage = policy.observe("conv1", misspeculation_rate=0.5)
        assert stage == "IOS"
        assert len(policy.events) == 1
        event = policy.events[0]
        assert (event.from_stage, event.to_stage) == ("DUET", "IOS")
        assert "misspeculation" in event.reason

    def test_checksum_violation_is_rate_based(self):
        budget = DegradationBudget(max_checksum_failure_rate=0.25)
        policy = DegradationPolicy(budget)
        # 2 failures out of 100 channels: 2% -- within budget
        assert (
            policy.observe("a", checksum_failures=2, channels_checked=100)
            == "DUET"
        )
        # 2 failures out of 4 channels: 50% -- the transport is bad
        assert (
            policy.observe("b", checksum_failures=2, channels_checked=4)
            == "IOS"
        )

    def test_dram_violation(self):
        policy = DegradationPolicy(DegradationBudget(max_dram_unrecoverable=0))
        assert policy.observe("x", dram_unrecoverable=1) == "IOS"

    def test_monotone_never_steps_up(self):
        """Good layers after a violation never restore the old stage."""
        policy = DegradationPolicy(DegradationBudget())
        policy.observe("bad", misspeculation_rate=1.0)
        for i in range(20):
            policy.observe(f"good{i}")
        assert policy.current_stage == "IOS"

    def test_converges_within_ladder_length(self):
        """Even a permanently-violating stream stabilises at the floor in
        at most len(ladder) - 1 transitions."""
        policy = DegradationPolicy(DegradationBudget())
        for i in range(50):
            policy.observe(f"layer{i}", misspeculation_rate=1.0)
        assert policy.current_stage == "BASE"
        assert policy.at_floor
        assert len(policy.events) == len(DEGRADATION_LADDER) - 1

    def test_at_floor_stays_put(self):
        policy = DegradationPolicy(DegradationBudget(), initial_stage="BASE")
        assert policy.at_floor
        assert policy.observe("x", misspeculation_rate=1.0) == "BASE"
        assert policy.events == []

    def test_reason_strings_quote_budgets(self):
        policy = DegradationPolicy(
            DegradationBudget(max_misspeculation_rate=0.05)
        )
        policy.observe("c", misspeculation_rate=0.2)
        assert "0.200" in policy.events[0].reason
        assert "0.050" in policy.events[0].reason
