"""Tests for checkpoint serialization."""

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.serialization import load_checkpoint, save_checkpoint


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        src = Sequential(Linear(8, 16, rng=rng), ReLU(), Linear(16, 4, rng=rng))
        path = tmp_path / "model.npz"
        save_checkpoint(src, path)
        dst = Sequential(
            Linear(8, 16, rng=np.random.default_rng(99)),
            ReLU(),
            Linear(16, 4, rng=np.random.default_rng(99)),
        )
        load_checkpoint(dst, path)
        x = rng.normal(size=(3, 8))
        np.testing.assert_allclose(src(x), dst(x))

    def test_shape_mismatch_detected(self, tmp_path, rng):
        save_checkpoint(Linear(8, 16, rng=rng), tmp_path / "m.npz")
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(Linear(8, 8, rng=rng), tmp_path / "m.npz")

    def test_empty_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no parameters"):
            save_checkpoint(ReLU(), tmp_path / "m.npz")
