"""Model zoo: shape-exact benchmark specs and trainable proxy models.

Two complementary views of the paper's benchmark networks:

- :mod:`repro.models.zoo` -- :class:`~repro.models.layer_spec.ModelSpec`
  shape descriptions with exact ImageNet/PTB/WMT16 layer geometry; these
  drive the architecture simulator (cycle/energy results never need
  trained weights).
- :mod:`repro.models.proxies` -- down-scaled *trainable* models built on
  :mod:`repro.nn` and the synthetic datasets; these drive the
  accuracy-vs-savings studies (Figs. 2, 10, 13b) where real forward passes
  and quality metrics are required.
- :mod:`repro.models.dualize` -- converting trained proxies into
  dual-module networks (distill + threshold-tune every layer).
"""

from repro.models.registry import MODEL_REGISTRY, get_model_spec

__all__ = ["MODEL_REGISTRY", "get_model_spec"]
