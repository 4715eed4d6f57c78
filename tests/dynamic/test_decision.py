"""Seeded exit decisions: determinism, monotonicity, boundary thresholds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.decision import (
    ALWAYS_LATE,
    confidence,
    decide_exit,
    input_difficulty,
)
from repro.dynamic.exits import FINAL_EXIT, early_exit_model

VARIANT = early_exit_model("alexnet")

seeds = st.integers(0, 2**32 - 1)
thresholds = st.floats(0.0, 1.0)


class TestDifficultyAndConfidence:
    @given(seeds, seeds)
    def test_difficulty_in_half_open_unit_interval(self, workload_seed, seed):
        difficulty = input_difficulty(workload_seed, seed=seed)
        assert 0.0 < difficulty <= 1.0

    @given(seeds)
    def test_difficulty_is_deterministic(self, workload_seed):
        assert input_difficulty(workload_seed) == input_difficulty(
            workload_seed
        )

    @given(st.floats(0.001, 1.0), st.floats(0.0, 0.999))
    def test_confidence_grows_with_depth_and_caps_below_one(
        self, difficulty, depth
    ):
        here = confidence(difficulty, depth)
        deeper = confidence(difficulty, min(1.0, depth + 0.001))
        assert here < 1.0  # side exits are never fully confident
        assert deeper >= here
        assert confidence(difficulty, 1.0) == 1.0


class TestDecide:
    @given(seeds, thresholds)
    def test_decision_is_pure(self, workload_seed, threshold):
        first = decide_exit(VARIANT, workload_seed, threshold)
        again = decide_exit(VARIANT, workload_seed, threshold)
        assert first == again

    @given(seeds)
    def test_always_late_never_exits_early(self, workload_seed):
        decision = decide_exit(VARIANT, workload_seed, ALWAYS_LATE)
        assert decision.exit_name == FINAL_EXIT
        assert not decision.early
        assert decision.depth_fraction == 1.0
        assert decision.confidence == 1.0

    @given(seeds)
    def test_threshold_zero_takes_the_first_exit(self, workload_seed):
        decision = decide_exit(VARIANT, workload_seed, 0.0)
        assert decision.exit_name == VARIANT.exits[0].name
        assert decision.early

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_threshold_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            decide_exit(VARIANT, 0, bad)


class TestMonotonicity:
    @settings(max_examples=200)
    @given(seeds, thresholds, thresholds)
    def test_raising_threshold_never_shallows_an_input(
        self, workload_seed, one, other
    ):
        low, high = sorted((one, other))
        shallow = decide_exit(VARIANT, workload_seed, low)
        deep = decide_exit(VARIANT, workload_seed, high)
        assert deep.exit_index >= shallow.exit_index
        assert deep.depth_fraction >= shallow.depth_fraction

    @given(st.lists(seeds, min_size=2, max_size=16, unique=True))
    def test_mean_exit_depth_deepens_with_threshold(self, workload_seeds):
        """The satellite property: threshold up, mean exit depth up."""
        grid = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
        means = [
            sum(
                decide_exit(VARIANT, seed, threshold).depth_fraction
                for seed in workload_seeds
            )
            / len(workload_seeds)
            for threshold in grid
        ]
        assert all(
            later >= earlier for earlier, later in zip(means, means[1:])
        )
