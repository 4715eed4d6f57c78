"""Minimal numpy neural-network framework (training substrate).

DUET's algorithm-level evaluation needs pre-trained accurate modules and a
way to distill approximate modules from them (paper Section II-A).  The
original work used PyTorch; no deep-learning framework is available offline,
so this subpackage implements the required pieces from scratch:

- :mod:`repro.nn.module` -- ``Parameter`` / ``Module`` base classes.
- :mod:`repro.nn.functional` -- activations, ``im2col``/``col2im``, softmax.
- :mod:`repro.nn.layers` -- feed-forward layers (Linear, Conv2d, max
  pooling, embedding, containers).
- :mod:`repro.nn.recurrent` -- LSTM/GRU cells and multi-step wrappers with
  full back-propagation-through-time.
- :mod:`repro.nn.optim` -- Adam.
- :mod:`repro.nn.losses` -- cross-entropy loss and quality metrics.
- :mod:`repro.nn.data` -- synthetic datasets standing in for ImageNet / PTB
  / WMT16 (see DESIGN.md substitution table).

Every module uses explicit ``forward``/``backward`` methods rather than a
tape-based autodiff: the computations DUET needs (layer-wise distillation,
small proxy-task training) are shallow, and explicit gradients keep the
substrate small, fast, and easy to property-test.
"""

from repro.nn import functional
from repro.nn.layers import Linear

__all__ = ["functional", "Linear"]
