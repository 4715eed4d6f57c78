"""Processing Element with a MAC-instruction LUT (paper Section III-C).

Each Executor PE stores its tile schedule as micro-instructions: every
MAC names an input-activation (IA) index, a weight (W) index and an
output-activation (OA) index into the PE-local buffers, plus a 1-bit tag.
Because a layer is processed in tiles of a fixed shape, the *indices* are
generated once at layer configuration and shared by all PEs; only the tag
bits change per tile, derived from the OMap and IMap with simple Boolean
logic.  MACs with tag 0 are skipped entirely.

This module is a *functional* model: :class:`PE` really executes the
tagged instruction stream over local buffers and returns both the computed
partial sums and the cycle count, so tests can prove that skipping
preserves numerical results while saving cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MacInstruction", "PE"]


@dataclass(frozen=True)
class MacInstruction:
    """One micro-instruction: ``psum[oa] += input[ia] * weight[w]``.

    Attributes:
        ia: index into the PE's input-activation buffer.
        w: index into the PE's weight buffer.
        oa: index into the PE's output (psum) buffer.
    """

    ia: int
    w: int
    oa: int


class PE:
    """A functional Executor PE.

    Holds input/weight/psum local buffers, executes a tagged instruction
    stream, and counts cycles: one cycle per *live* MAC (the pipelined
    16-bit multiplier-adder retires one MAC per cycle; tagged-off
    instructions are squashed by the local control at zero cost, as the
    LUT lookup happens a cycle ahead).

    Attributes:
        cycles: cycles consumed since construction or :meth:`reset`.
        macs_executed: live MACs executed.
        macs_skipped: instructions skipped via tag bits.
    """

    def __init__(self):
        self.cycles = 0
        self.macs_executed = 0
        self.macs_skipped = 0
        self.input_buffer = np.zeros(0)
        self.weight_buffer = np.zeros(0)
        self.psum_buffer = np.zeros(0)

    def reset(self) -> None:
        """Clear counters (buffers are overwritten by :meth:`load_tile`)."""
        self.cycles = 0
        self.macs_executed = 0
        self.macs_skipped = 0

    def load_tile(
        self, inputs: np.ndarray, weights: np.ndarray, psum_size: int
    ) -> None:
        """Load a tile into the local buffers (psums start at zero)."""
        self.input_buffer = np.asarray(inputs, dtype=np.float64).reshape(-1)
        self.weight_buffer = np.asarray(weights, dtype=np.float64).reshape(-1)
        self.psum_buffer = np.zeros(psum_size)

    def run(
        self, instructions: list[MacInstruction], tags: np.ndarray
    ) -> np.ndarray:
        """Execute the tagged schedule; returns the psum buffer.

        Vectorized: live products accumulate into psum bins with
        ``np.bincount``, whose per-bin accumulation follows instruction
        order, so the result matches :meth:`run_reference` bit for bit
        when the psums start from zero (the :meth:`load_tile` contract).

        Raises:
            ValueError: if ``tags`` and ``instructions`` lengths differ.
        """
        tags = np.asarray(tags, dtype=bool)
        if tags.shape[0] != len(instructions):
            raise ValueError(
                f"{len(instructions)} instructions but {tags.shape[0]} tags"
            )
        live = np.flatnonzero(tags)
        n_live = int(live.size)
        self.macs_skipped += len(instructions) - n_live
        if n_live:
            count = len(instructions)
            ia = np.fromiter(
                (inst.ia for inst in instructions), dtype=np.intp, count=count
            )[live]
            w = np.fromiter(
                (inst.w for inst in instructions), dtype=np.intp, count=count
            )[live]
            oa = np.fromiter(
                (inst.oa for inst in instructions), dtype=np.intp, count=count
            )[live]
            products = self.input_buffer[ia] * self.weight_buffer[w]
            self.psum_buffer += np.bincount(
                oa, weights=products, minlength=self.psum_buffer.shape[0]
            )
            self.cycles += n_live
            self.macs_executed += n_live
        return self.psum_buffer.copy()

    def run_reference(
        self, instructions: list[MacInstruction], tags: np.ndarray
    ) -> np.ndarray:
        """Event-at-a-time reference of :meth:`run` (the oracle).

        Raises:
            ValueError: if ``tags`` and ``instructions`` lengths differ.
        """
        tags = np.asarray(tags, dtype=bool)
        if tags.shape[0] != len(instructions):
            raise ValueError(
                f"{len(instructions)} instructions but {tags.shape[0]} tags"
            )
        for inst, tag in zip(instructions, tags):
            if not tag:
                self.macs_skipped += 1
                continue
            self.psum_buffer[inst.oa] += (
                self.input_buffer[inst.ia] * self.weight_buffer[inst.w]
            )
            self.cycles += 1
            self.macs_executed += 1
        return self.psum_buffer.copy()
