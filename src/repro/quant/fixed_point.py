"""Fixed-point tensors and symmetric linear quantization.

The numeric model follows paper Section III-B:

- Executor datapath: INT16 payload with a shared FP32 scale per tensor.
- Speculator datapath: INT4 (the hardware truncates the INT16 payload's
  12 least-significant bits; the approximate modules model its inputs
  with :func:`quantize_linear` at 4 bits).
- QDR weights: symmetric linear quantization at a configurable bit width
  (INT4 by default; INT2/INT8 for the Fig. 13b precision sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "int_range",
    "FixedPointTensor",
    "quantize_linear",
]


def int_range(bits: int) -> tuple[int, int]:
    """Return the inclusive ``(min, max)`` of a signed ``bits``-wide integer.

    Raises:
        ValueError: if ``bits < 2`` (a signed value needs a sign bit and at
            least one magnitude bit).
    """
    if bits < 2:
        raise ValueError(f"need at least 2 bits for signed values, got {bits}")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


@dataclass(frozen=True)
class FixedPointTensor:
    """An integer payload with a shared floating-point scale.

    ``real value = values * scale``.  Immutable: arithmetic helpers return
    new instances.

    Attributes:
        values: integer payload (``numpy.int64`` internally for headroom).
        scale: FP32-style scalar scale.
        bits: nominal bit width of the payload (payload must fit in it).
    """

    values: np.ndarray
    scale: float
    bits: int

    def __post_init__(self):
        lo, hi = int_range(self.bits)
        values = np.asarray(self.values)
        if not np.issubdtype(values.dtype, np.integer):
            raise TypeError(f"payload must be integer, got {values.dtype}")
        if values.size and (values.min() < lo or values.max() > hi):
            raise ValueError(
                f"payload out of INT{self.bits} range [{lo}, {hi}]: "
                f"[{values.min()}, {values.max()}]"
            )
        object.__setattr__(self, "values", values.astype(np.int64))

    @property
    def shape(self) -> tuple:
        """Payload shape."""
        return self.values.shape

    def to_float(self) -> np.ndarray:
        """Dequantize to float64: ``values * scale``."""
        return self.values.astype(np.float64) * self.scale

    def __repr__(self) -> str:
        return (
            f"FixedPointTensor(shape={self.values.shape}, "
            f"bits={self.bits}, scale={self.scale:.3e})"
        )


def quantize_linear(
    x: np.ndarray, bits: int, scale: float | None = None
) -> FixedPointTensor:
    """Symmetric linear quantization of a float tensor.

    Args:
        x: real-valued tensor.
        bits: target signed bit width.
        scale: if ``None``, chosen so that ``max(|x|)`` maps to the largest
            representable magnitude; otherwise used as given.

    Returns:
        A :class:`FixedPointTensor` with round-to-nearest, saturating
        payload.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = int_range(bits)
    if scale is None:
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        scale = max_abs / hi if max_abs > 0 else 1.0
        if scale == 0.0:
            # subnormal inputs can underflow max_abs / hi to exactly zero;
            # treat the tensor as effectively zero-valued
            scale = 1.0
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    q = np.clip(np.rint(x / scale), lo, hi).astype(np.int64)
    return FixedPointTensor(q, float(scale), bits)
