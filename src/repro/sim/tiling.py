"""Loop tiling under the GLB capacity constraint.

The pipeline models assume each CONV layer's ifmap, filters and ofmap
stream through DRAM once.  That holds only if, for some loop order, the
data kept on chip fits the GLB.  For large layers (VGG16's conv4 stage
holds 2.4 MB of filters alone against a 1 MB GLB) some tensor must be
re-fetched; this module picks the loop tiling that minimises total DRAM
traffic, the standard first-order analysis for Eyeriss-class accelerators.

Model: the layer loops over output-channel tiles (size ``tc_out``) and
input-channel tiles (size ``tc_in``); spatial dimensions stay resident
per tile pass.  For a choice ``(tc_out, tc_in)``:

- filters are read once (every weight is used for the whole spatial
  extent it is resident for): ``weight_elements``;
- the ifmap tile set is re-read once per output-channel tile group:
  ``input_elements * ceil(C_out / tc_out)``;
- psums spill to DRAM when input channels do not fit in one pass:
  ``2 * output_elements * (ceil(C_in / tc_in) - 1)`` (write + re-read);
- the ofmap is written once.

The on-chip working set ``tc_in``-slice of the ifmap + ``tc_out x tc_in``
filters + ``tc_out``-slice of the ofmap must fit the GLB.  The search is
over divisor-ish tile sizes (powers of two clipped to the channel counts),
which is how real configuration generators sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.models.layer_spec import BYTES_PER_ELEMENT, ConvSpec

__all__ = [
    "TilingChoice",
    "choose_tiling",
    "choose_tiling_cached",
    "candidate_tiles",
]


@dataclass(frozen=True)
class TilingChoice:
    """One evaluated tiling point.

    Attributes:
        tc_out / tc_in: output/input channel tile sizes.
        buffer_bytes: on-chip working set of the choice.
        dram_read_words: ifmap + filter (+ psum re-read) traffic in words.
        dram_write_words: ofmap (+ psum spill) traffic in words.
        input_refetch: how many times the full ifmap streams in.
        psum_passes: input-channel passes (>1 means psum spilling).
    """

    tc_out: int
    tc_in: int
    buffer_bytes: int
    dram_read_words: int
    dram_write_words: int
    input_refetch: int
    psum_passes: int

    @property
    def dram_total_words(self) -> int:
        """All off-chip traffic of the layer under this tiling."""
        return self.dram_read_words + self.dram_write_words


def candidate_tiles(limit: int) -> list[int]:
    """Power-of-two tile sizes up to ``limit``, always including ``limit``."""
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    tiles = []
    t = 1
    while t < limit:
        tiles.append(t)
        t *= 2
    tiles.append(limit)
    return tiles


def _evaluate(spec: ConvSpec, tc_out: int, tc_in: int) -> TilingChoice:
    import math

    out_groups = math.ceil(spec.out_channels / tc_out)
    in_passes = math.ceil(spec.in_channels / tc_in)
    # on-chip residency: one input-channel slice of the ifmap, the filter
    # tile, and one output-channel slice of psums
    input_slice = tc_in * spec.in_h * spec.in_w
    filter_tile = tc_out * tc_in * spec.kernel * spec.kernel
    psum_slice = tc_out * spec.out_h * spec.out_w
    buffer_bytes = (input_slice + filter_tile + psum_slice) * BYTES_PER_ELEMENT

    reads = (
        spec.weight_elements
        + spec.input_elements * out_groups
        + spec.output_elements * (in_passes - 1)  # psum re-read
    )
    writes = spec.output_elements + spec.output_elements * (in_passes - 1)
    return TilingChoice(
        tc_out=tc_out,
        tc_in=tc_in,
        buffer_bytes=buffer_bytes,
        dram_read_words=reads,
        dram_write_words=writes,
        input_refetch=out_groups,
        psum_passes=in_passes,
    )


def choose_tiling(spec: ConvSpec, glb_bytes: int) -> TilingChoice:
    """Minimum-DRAM-traffic tiling that fits the GLB.

    Args:
        spec: the CONV layer shape.
        glb_bytes: on-chip buffer capacity.

    Returns:
        The best :class:`TilingChoice`.  If even the smallest tile
        (1 x 1 channels) exceeds the GLB -- spatially enormous layers --
        that smallest choice is returned anyway (the hardware would tile
        spatially too; channel tiling dominates for the paper's models).
    """
    if glb_bytes <= 0:
        raise ValueError(f"glb_bytes must be positive, got {glb_bytes}")
    best: TilingChoice | None = None
    fallback: TilingChoice | None = None
    for tc_out in candidate_tiles(spec.out_channels):
        for tc_in in candidate_tiles(spec.in_channels):
            choice = _evaluate(spec, tc_out, tc_in)
            if fallback is None or choice.buffer_bytes < fallback.buffer_bytes:
                fallback = choice
            if choice.buffer_bytes > glb_bytes:
                continue
            if (
                best is None
                or choice.dram_total_words < best.dram_total_words
                or (
                    choice.dram_total_words == best.dram_total_words
                    and choice.buffer_bytes < best.buffer_bytes
                )
            ):
                best = choice
    result = best if best is not None else fallback
    assert result is not None
    return result


@lru_cache(maxsize=4096)
def choose_tiling_cached(spec: ConvSpec, glb_bytes: int) -> TilingChoice:
    """Memoized :func:`choose_tiling` (the CNN pipeline's entry point).

    The tiling search sweeps ``O(log C_out * log C_in)`` candidate points
    per call; a model sweep re-asks for the same ``(spec, glb_bytes)``
    dozens of times (every stage, every repeat).  ``ConvSpec`` is a frozen
    dataclass, so the pair is hashable and the search result -- itself a
    frozen :class:`TilingChoice` -- can be shared safely.
    """
    return choose_tiling(spec, glb_bytes)
