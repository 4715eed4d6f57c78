"""Fixed-point arithmetic and quantization substrate.

DUET's Executor computes in 16-bit fixed point ("essentially INT16 with a
scale in FP32", paper Section III-B Step 1) and the Speculator computes in
INT4.  This subpackage implements:

- :class:`~repro.quant.fixed_point.FixedPointTensor` -- integer payload +
  FP32 scale container (``to_float`` dequantizes).
- :func:`quantize_linear` -- symmetric linear quantization to an arbitrary
  bit width (used for QDR weights and the Speculator's INT4 inputs).
- :func:`int_range` -- the representable range of a signed bit width.
"""

from repro.quant.fixed_point import int_range, quantize_linear

__all__ = ["quantize_linear", "int_range"]
