"""Extracting measured workloads from dual-module proxy runs.

Bridges the algorithm level and the architecture level: run a
:class:`~repro.models.dualize.DualizedCNN` on real (synthetic-dataset)
inputs, capture the actual switching maps it produced, and wrap them as
:class:`~repro.workloads.sparsity.CnnLayerWorkload` objects the simulator
accepts.  This validates the synthetic :class:`SparsityModel` against maps
produced by the real algorithm and enables true end-to-end (algorithm ->
architecture) studies at proxy scale.
"""

from __future__ import annotations

import numpy as np

from repro.core.switching import imap_from_activations
from repro.models.dualize import DualizedCNN
from repro.models.layer_spec import ConvSpec
from repro.nn.layers import ReLU
from repro.workloads.sparsity import CnnLayerWorkload

__all__ = ["workload_from_maps", "trace_cnn_workloads"]


def workload_from_maps(
    spec: ConvSpec, omap: np.ndarray, imap: np.ndarray
) -> CnnLayerWorkload:
    """Wrap measured maps (single image) as a simulator workload.

    Args:
        spec: the layer shape the maps belong to.
        omap: measured switching map ``(C_out, H', W')``.
        imap: measured input sparsity map ``(C_in, H, W)``.

    Raises:
        ValueError: a map's shape does not match ``spec`` or a map holds a
            value other than 0 or 1.
    """
    return CnnLayerWorkload(spec, np.asarray(omap), np.asarray(imap))


def _spec_from_conv(name: str, conv, in_h: int, in_w: int) -> ConvSpec:
    """Build a ConvSpec from a live ``repro.nn.layers.Conv2d``."""
    return ConvSpec(
        name,
        conv.in_channels,
        conv.out_channels,
        kernel=conv.kernel_size[0],
        stride=conv.stride,
        padding=conv.padding,
        in_h=in_h,
        in_w=in_w,
    )


def trace_cnn_workloads(
    dual: DualizedCNN, image: np.ndarray
) -> list[CnnLayerWorkload]:
    """Run a dualized CNN on one image and capture per-layer workloads.

    Args:
        dual: a built (distilled + threshold-tuned) :class:`DualizedCNN`.
        image: one image of shape ``(C, H, W)`` (a batch axis is added).

    Returns:
        One :class:`CnnLayerWorkload` per dual conv layer, in order, with
        the OMap the switching rule actually produced and the IMap equal to
        the true input sparsity seen by that layer.
    """
    x = np.asarray(image, dtype=np.float64)[None]
    workloads: list[CnnLayerWorkload] = []
    conv_counter = 0
    for index, layer in enumerate(dual.model.features):
        slot = dual._slot_by_index.get(index)
        if slot is not None:
            conv = slot.dual.accurate
            spec = _spec_from_conv(
                f"conv{conv_counter + 1}", conv, x.shape[2], x.shape[3]
            )
            imap = imap_from_activations(x[0])
            out, report = slot.dual.forward(x)
            omap = report.switching_map[0]
            workloads.append(workload_from_maps(spec, omap, imap))
            x = out
            conv_counter += 1
        elif isinstance(layer, ReLU):
            continue  # fused into the dual conv
        else:
            x = layer(x)
    return workloads
