"""Tests for the functional MAC-instruction-LUT PE."""

import numpy as np
import pytest

from repro.sim.pe import PE
from tests.conftest import tile_schedule, tile_tags


@pytest.fixture
def tile_setup(rng):
    """The paper's Fig. 6 example: 3x5 input tile, 3x3 filter, 1x3 outputs."""
    inputs = rng.normal(size=(3, 5))
    weights = rng.normal(size=(3, 3))
    instructions = tile_schedule(tile_h=3, tile_w=5, kernel=3, out_w=3)
    return inputs, weights, instructions


def reference_conv_row(inputs, weights, out_w):
    """Direct 1-row valid convolution."""
    return np.array(
        [np.sum(inputs[:, x : x + 3] * weights) for x in range(out_w)]
    )


class TestPEExecution:
    def test_dense_matches_reference(self, tile_setup):
        inputs, weights, instructions = tile_setup
        pe = PE()
        pe.load_tile(inputs, weights, psum_size=3)
        psums = pe.run(instructions, np.ones(27, dtype=bool))
        np.testing.assert_allclose(psums, reference_conv_row(inputs, weights, 3))
        assert pe.cycles == 27
        assert pe.macs_executed == 27

    def test_skipping_preserves_live_outputs(self, tile_setup):
        """The core correctness claim: tag-skipping changes nothing for the
        outputs that remain live."""
        inputs, weights, instructions = tile_setup
        omap = np.array([1, 0, 1], dtype=np.uint8)
        pe = PE()
        pe.load_tile(inputs, weights, psum_size=3)
        psums = pe.run(instructions, tile_tags(instructions, omap))
        ref = reference_conv_row(inputs, weights, 3)
        np.testing.assert_allclose(psums[[0, 2]], ref[[0, 2]])
        assert psums[1] == 0.0

    def test_skipping_saves_cycles(self, tile_setup):
        inputs, weights, instructions = tile_setup
        omap = np.array([1, 0, 0], dtype=np.uint8)
        pe = PE()
        pe.load_tile(inputs, weights, psum_size=3)
        pe.run(instructions, tile_tags(instructions, omap))
        assert pe.cycles == 9
        assert pe.macs_skipped == 18

    def test_imap_skipping_still_correct(self, tile_setup):
        """Skipping zero inputs never changes the psums because those MACs
        contribute zero anyway."""
        inputs, weights, instructions = tile_setup
        imap = (np.random.default_rng(1).random(15) > 0.5).astype(np.uint8)
        masked_inputs = inputs.reshape(-1) * imap
        omap = np.ones(3, dtype=np.uint8)
        pe = PE()
        pe.load_tile(masked_inputs, weights, psum_size=3)
        psums = pe.run(instructions, tile_tags(instructions, omap, imap))
        ref = reference_conv_row(masked_inputs.reshape(3, 5), weights, 3)
        np.testing.assert_allclose(psums, ref)

    def test_tag_length_mismatch(self, tile_setup):
        inputs, weights, instructions = tile_setup
        pe = PE()
        pe.load_tile(inputs, weights, psum_size=3)
        with pytest.raises(ValueError, match="tags"):
            pe.run(instructions, np.ones(5, dtype=bool))

    def test_reset(self, tile_setup):
        inputs, weights, instructions = tile_setup
        pe = PE()
        pe.load_tile(inputs, weights, psum_size=3)
        pe.run(instructions, np.ones(27, dtype=bool))
        pe.reset()
        assert pe.cycles == 0
        assert pe.macs_executed == 0
