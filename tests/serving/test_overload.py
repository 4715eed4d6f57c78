"""Tests for the occupancy -> degradation-rung overload policy."""

import pytest

from repro.reliability.degrade import DEGRADATION_LADDER
from repro.serving.overload import SERVING_LADDER, OverloadPolicy

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False


class TestLadder:
    def test_is_reliability_ladder_minus_base(self):
        assert SERVING_LADDER == DEGRADATION_LADDER[:-1]
        assert SERVING_LADDER == ("DUET", "IOS", "BOS", "OS")


class TestStageFor:
    def test_default_thresholds(self):
        policy = OverloadPolicy()
        assert policy.stage_for(0, 100) == "DUET"
        assert policy.stage_for(50, 100) == "DUET"  # at a threshold, not over
        assert policy.stage_for(51, 100) == "IOS"
        assert policy.stage_for(71, 100) == "BOS"
        assert policy.stage_for(86, 100) == "OS"
        assert policy.stage_for(100, 100) == "OS"

    def test_disabled_never_sheds(self):
        policy = OverloadPolicy.disabled()
        assert all(
            policy.stage_for(depth, 10) == "DUET" for depth in range(11)
        )

    def test_monotone_in_depth(self):
        policy = OverloadPolicy()
        rungs = [
            SERVING_LADDER.index(policy.stage_for(depth, 64))
            for depth in range(65)
        ]
        assert rungs == sorted(rungs)

    @pytest.mark.parametrize(
        "thresholds",
        [(), (0.5,), (0.5, 0.7, 0.85, 0.9), (0.7, 0.5, 0.85), (0.5, 0.7, 1.5)],
    )
    def test_rejects_bad_thresholds(self, thresholds):
        with pytest.raises(ValueError):
            OverloadPolicy(thresholds=thresholds)


if HAVE_HYPOTHESIS:

    class TestProperties:
        @given(
            depth_a=st.integers(min_value=0, max_value=500),
            depth_b=st.integers(min_value=0, max_value=500),
            bound=st.integers(min_value=1, max_value=500),
        )
        def test_higher_pressure_never_serves_higher_quality(
            self, depth_a, depth_b, bound
        ):
            """Degradation is monotone: more queue pressure can only move
            the served rung further down the ladder."""
            policy = OverloadPolicy()
            lo, hi = sorted((depth_a, depth_b))
            assert SERVING_LADDER.index(
                policy.stage_for(lo, bound)
            ) <= SERVING_LADDER.index(policy.stage_for(hi, bound))

        @given(
            depth=st.integers(min_value=0, max_value=500),
            bound=st.integers(min_value=1, max_value=500),
        )
        def test_always_a_ladder_rung(self, depth, bound):
            assert OverloadPolicy().stage_for(depth, bound) in SERVING_LADDER
