"""Tests for switching-map generation and output mixing (Eq. 2/3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.switching import (
    correct_omap_after_relu,
    imap_from_activations,
    mix_outputs,
    switching_map,
)


class TestSwitchingRules:
    def test_relu_rule(self):
        """ReLU: y' < theta -> insensitive (0); y' >= theta -> sensitive."""
        y = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        m = switching_map(y, "relu", threshold=0.0)
        np.testing.assert_array_equal(m, [0, 0, 1, 1, 1])

    def test_relu_threshold_shifts(self):
        y = np.array([0.5, 1.5])
        np.testing.assert_array_equal(switching_map(y, "relu", 1.0), [0, 1])

    @pytest.mark.parametrize("act", ["sigmoid", "tanh"])
    def test_saturation_rule(self, act):
        """sigmoid/tanh: |y'| > theta -> insensitive (saturated)."""
        y = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        m = switching_map(y, act, threshold=2.0)
        np.testing.assert_array_equal(m, [0, 1, 1, 1, 0])

    def test_saturation_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            switching_map(np.zeros(3), "tanh", -1.0)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("threshold, guard_band", [(np.nan, 0.0), (1.0, np.nan)])
    def test_nan_threshold_or_guard_band_rejected(self, act, threshold, guard_band):
        with pytest.raises(ValueError, match="NaN"):
            switching_map(np.zeros(3), act, threshold, guard_band)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="no switching rule"):
            switching_map(np.zeros(3), "softmax", 0.0)

    def test_dtype_is_uint8(self):
        m = switching_map(np.zeros(3), "relu", 0.0)
        assert m.dtype == np.uint8

    @settings(deadline=None, max_examples=30)
    @given(
        arrays(np.float64, 32, elements=st.floats(-10, 10, allow_nan=False)),
        st.floats(0.0, 5.0),
    )
    def test_saturation_monotone_in_threshold(self, y, theta):
        """Raising theta can only make more outputs sensitive."""
        low = switching_map(y, "tanh", theta)
        high = switching_map(y, "tanh", theta + 1.0)
        assert np.all(high >= low)


class TestMixing:
    def test_mixture_semantics(self, rng):
        acc = rng.normal(size=(3, 4))
        approx = rng.normal(size=(3, 4))
        m = (rng.random((3, 4)) > 0.5).astype(np.uint8)
        mixed = mix_outputs(acc, approx, m)
        np.testing.assert_array_equal(mixed[m == 1], acc[m == 1])
        np.testing.assert_array_equal(mixed[m == 0], approx[m == 0])

    def test_all_ones_gives_accurate(self, rng):
        acc, approx = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        np.testing.assert_array_equal(
            mix_outputs(acc, approx, np.ones((2, 2), dtype=np.uint8)), acc
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mix_outputs(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


class TestMapCorrection:
    def test_relu_zeroed_neurons_corrected(self):
        """Predicted-effectual neurons that ReLU zeroes go 1 -> 0."""
        omap = np.array([1, 1, 0, 1], dtype=np.uint8)
        activated = np.array([2.0, 0.0, 0.0, 1.0])
        corrected = correct_omap_after_relu(omap, activated)
        np.testing.assert_array_equal(corrected, [1, 0, 0, 1])

    def test_never_resurrects_zeros(self, rng):
        """Correction can only clear bits, never set them."""
        omap = (rng.random(50) > 0.5).astype(np.uint8)
        act = np.abs(rng.normal(size=50))
        corrected = correct_omap_after_relu(omap, act)
        assert np.all(corrected <= omap)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            correct_omap_after_relu(np.zeros(3, dtype=np.uint8), np.zeros(4))


class TestImap:
    def test_nonzero_detection(self):
        x = np.array([[0.0, 1.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(
            imap_from_activations(x), [[0, 1], [1, 0]]
        )

    def test_corrected_omap_equals_next_imap(self, rng):
        """The paper's 'pay once, use twice': corrected OMap == IMap of the
        zero-filled activation tensor."""
        y_acc = rng.normal(size=(4, 8))
        omap = (rng.random((4, 8)) > 0.4).astype(np.uint8)
        mixed = np.where(omap.astype(bool), y_acc, 0.0)
        activated = np.maximum(mixed, 0.0)
        corrected = correct_omap_after_relu(omap, activated)
        np.testing.assert_array_equal(corrected, imap_from_activations(activated))
