"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that every
experiment in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "uniform_fan_in", "default_rng"]


def default_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a seeded ``numpy.random.Generator`` (seed 0 by default)."""
    return np.random.default_rng(seed)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional shapes."""
    if len(shape) < 2:
        raise ValueError(f"initializer needs >=2-D shape, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He/Kaiming uniform init, appropriate for ReLU networks."""
    fan_in, _ = _fans(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)); the classic RNN/bias init."""
    fan_in, _ = _fans(shape) if len(shape) >= 2 else (shape[0], shape[0])
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
