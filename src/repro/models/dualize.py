"""Converting trained proxy models into dual-module networks.

This is the offline phase of the paper end-to-end: for every accurate
layer of a trained model, construct the QDR approximate module, distill it
(Eq. 1) on calibration data, tune switching thresholds, and return a
network object that runs the online dual-module procedure layer by layer
with IMap chaining (Section III-C).

Entry points:

- :class:`DualizedCNN` -- dual-module version of a :class:`ProxyCNN`.
- :class:`DualizedLanguageModel` -- dual-module LSTM/GRU language model.
- :class:`DualizedSeq2Seq` -- dual-module encoder/decoder translator.

Each ``forward``/``evaluate`` returns both the quality metric and an
aggregated :class:`~repro.core.stats.LayerSavings`, which is everything
the Fig. 10 trade-off study needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLSTMCell,
)
from repro.core.distill import distill_conv2d, distill_gru_cell, distill_lstm_cell
from repro.core.dual import (
    DualModuleConv2d,
    DualModuleGRUCell,
    DualModuleLSTMCell,
    _resolve_gate_thresholds,
)
from repro.core.stats import LayerSavings
from repro.core.cache import tune_threshold_cached
from repro.core.switching import imap_from_activations
from repro.models.proxies import ProxyCNN, ProxyLanguageModel, ProxySeq2Seq
from repro.nn.layers import Conv2d, ReLU
from repro.nn.losses import CrossEntropyLoss, perplexity, topk_accuracy
from repro.nn.recurrent import GRUCell, LSTMCell

__all__ = [
    "reduced_dim",
    "DualizedCNN",
    "DualizedLanguageModel",
    "DualizedSeq2Seq",
]


def reduced_dim(full_dim: int, reduction: float) -> int:
    """Reduced dimension ``k = ceil(reduction * d)``, at least 1, at most d."""
    if not 0.0 < reduction <= 1.0:
        raise ValueError(f"reduction ratio must be in (0, 1], got {reduction}")
    return max(1, min(full_dim, math.ceil(reduction * full_dim)))


@dataclass
class _DualConvSlot:
    """One conv position inside the feature pipeline."""

    index: int  # position of the Conv2d inside model.features
    dual: DualModuleConv2d


class DualizedCNN:
    """Dual-module version of a trained :class:`ProxyCNN`.

    Every ``Conv2d -> ReLU`` pair in the feature extractor is replaced by a
    :class:`DualModuleConv2d`; pooling layers run unchanged; the classifier
    head stays accurate (it has no ReLU to exploit and is a negligible
    fraction of CNN compute).  The IMap chain uses the actual sparsity of
    each conv input, which -- because insensitive outputs are zero-filled --
    equals the corrected OMap of the previous layer propagated through
    pooling.

    Build with :meth:`build`, adjust aggressiveness with
    :meth:`set_thresholds_by_fraction`, run with :meth:`forward` or
    :meth:`evaluate`.
    """

    def __init__(self, model: ProxyCNN, slots: list[_DualConvSlot]):
        self.model = model
        self.slots = slots
        self._slot_by_index = {slot.index: slot for slot in slots}

    @classmethod
    def build(
        cls,
        model: ProxyCNN,
        calibration_images: np.ndarray,
        reduction: float = 0.25,
        weight_bits: int = 4,
        input_bits: int = 4,
        rng: np.random.Generator | None = None,
    ) -> "DualizedCNN":
        """Distill an approximate module for every conv layer.

        Args:
            model: trained proxy CNN (used as the teacher; not modified).
            calibration_images: batch of images for distillation and
                threshold tuning.
            reduction: dimension-reduction ratio ``k / d`` per layer.
            weight_bits/input_bits: Speculator precision (paper: INT4).
            rng: randomness for the ternary projections.

        Returns:
            A :class:`DualizedCNN` with all thresholds at 0 (pure
            sparsity-prediction mode); call
            :meth:`set_thresholds_by_fraction` to make switching more
            aggressive.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        slots: list[_DualConvSlot] = []
        x = np.asarray(calibration_images, dtype=np.float64)
        for index, layer in enumerate(model.features):
            if isinstance(layer, Conv2d):
                patch_dim = layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
                approx = ApproximateConv2d(
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    reduced_features=reduced_dim(patch_dim, reduction),
                    stride=layer.stride,
                    padding=layer.padding,
                    rng=rng,
                    weight_bits=weight_bits,
                    input_bits=input_bits,
                )
                distill_conv2d(layer, approx, x, rng=rng)
                slots.append(
                    _DualConvSlot(index, DualModuleConv2d(layer, approx, threshold=0.0))
                )
            x = layer(x)
        return cls(model, slots)

    def set_thresholds_by_fraction(
        self, fraction: float | list[float], calibration_images: np.ndarray
    ) -> list[float]:
        """Tune each layer's threshold to a target insensitive fraction.

        Runs the dual network on calibration images layer by layer (so each
        layer sees the sparsified inputs produced by upstream switching)
        and sets the per-layer threshold to the matching quantile of the
        approximate pre-activations.  Each layer lowers and speculates its
        input once (:meth:`DualModuleConv2d.speculate`): the threshold is
        tuned on those pre-activations, and the same array and columns
        drive the layer's switching and accurate GEMM
        (:meth:`DualModuleConv2d.execute`).  The threshold and switching
        memos key the pre-activations by the key :meth:`speculate`
        derives from the layer input, so they are never hashed.

        Args:
            fraction: a single fraction applied to every layer, or one
                fraction per dual conv layer (the paper tunes thresholds
                per layer; see
                :func:`repro.core.thresholds.allocate_layer_fractions`).
            calibration_images: images driving the quantile calibration.

        Returns:
            The chosen per-layer thresholds in pipeline order.
        """
        if isinstance(fraction, (int, float)):
            fractions = [float(fraction)] * len(self.slots)
        else:
            fractions = [float(f) for f in fraction]
            if len(fractions) != len(self.slots):
                raise ValueError(
                    f"{len(fractions)} fractions for {len(self.slots)} layers"
                )
        thetas: list[float] = []
        x = np.asarray(calibration_images, dtype=np.float64)
        slot_counter = 0
        for index, layer in enumerate(self.model.features):
            slot = self._slot_by_index.get(index)
            if slot is not None:
                cols, y_approx, key = slot.dual.speculate(x)
                theta = tune_threshold_cached(
                    y_approx,
                    "relu",
                    fractions[slot_counter],
                    layer=("conv", slot.index),
                    key=key,
                )
                slot.dual.threshold = theta
                thetas.append(theta)
                x, _ = slot.dual.execute(x, cols, y_approx, key=key)
                slot_counter += 1
            elif isinstance(layer, ReLU):
                continue  # fused into the dual conv
            else:
                x = layer(x)
        return thetas

    def forward(
        self, images: np.ndarray, use_imap: bool = True
    ) -> tuple[np.ndarray, LayerSavings]:
        """Run the dual-module network; returns (logits, total savings).

        Args:
            images: batch of shape ``(N, C, H, W)``.
            use_imap: charge executed MACs using input sparsity maps (the
                paper's IOS mode); switching itself is unaffected.
        """
        x = np.asarray(images, dtype=np.float64)
        total = LayerSavings()
        first_conv = True
        for index, layer in enumerate(self.model.features):
            slot = self._slot_by_index.get(index)
            if slot is not None:
                imap = None
                if use_imap and not first_conv:
                    imap = imap_from_activations(x)
                x, report = slot.dual.forward(x, imap=imap)
                total = total.merge(report.savings)
                first_conv = False
            elif isinstance(layer, ReLU):
                continue  # fused into the dual conv
            else:
                x = layer(x)
        logits = self.model.classifier(x)
        return logits, total

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        k: int = 1,
        use_imap: bool = True,
    ) -> tuple[float, LayerSavings]:
        """Top-k accuracy plus savings on a labelled batch."""
        logits, savings = self.forward(images, use_imap=use_imap)
        return topk_accuracy(logits, labels, k=k), savings


class DualizedLanguageModel:
    """Dual-module version of a trained :class:`ProxyLanguageModel`.

    Each recurrent layer's cell is paired with a distilled QDR cell and run
    through :class:`DualModuleLSTMCell` / :class:`DualModuleGRUCell`.  The
    embedding and decoder stay accurate.
    """

    def __init__(self, model: ProxyLanguageModel, dual_cells: list):
        self.model = model
        self.dual_cells = dual_cells

    @classmethod
    def build(
        cls,
        model: ProxyLanguageModel,
        calibration_tokens: np.ndarray,
        reduction: float = 0.25,
        weight_bits: int = 4,
        input_bits: int = 4,
        threshold: float | dict[str, float] = 1.0,
        rng: np.random.Generator | None = None,
    ) -> "DualizedLanguageModel":
        """Distill per-layer QDR cells from calibration token sequences.

        Args:
            model: trained proxy LM (teacher; not modified).
            calibration_tokens: ``(T, B)`` token ids used to produce the
                per-layer calibration sequences.
            reduction: dimension-reduction ratio per input stream.
            threshold: initial saturation threshold(s) for all gates.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        layer_inputs = model.embedding(np.asarray(calibration_tokens))
        dual_cells = []
        for cell in model.rnn.cells:
            dual = _dualize_cell(
                cell, layer_inputs, reduction, weight_bits, input_bits, threshold, rng
            )
            dual_cells.append(dual)
            # propagate accurately to get the next layer's calibration input
            layer_inputs, _, _ = cell.unroll(layer_inputs)
        return cls(model, dual_cells)

    def set_thresholds_by_fraction(
        self, fraction: float, calibration_tokens: np.ndarray
    ) -> None:
        """Tune every gate threshold to a target insensitive fraction.

        Gate pre-activations are collected from a dual-module run (so each
        layer sees upstream approximation), and each gate threshold is set
        to the matching quantile of ``|y'|``.
        """
        xs = self.model.embedding(np.asarray(calibration_tokens))
        for layer_idx, dual in enumerate(self.dual_cells):
            xs = _tune_gate_thresholds(dual, xs, dual, fraction, ("rnn", layer_idx))

    def forward(self, tokens: np.ndarray) -> tuple[np.ndarray, LayerSavings]:
        """Dual-module LM forward; returns ``(logits, total savings)``."""
        xs = self.model.embedding(np.asarray(tokens))
        total = LayerSavings()
        for dual in self.dual_cells:
            xs, _, reports = dual.run_sequence(xs)
            for report in reports:
                total = total.merge(report.savings)
        seq_len, batch, hidden = xs.shape
        logits = self.model.decoder(xs.reshape(seq_len * batch, hidden))
        return logits.reshape(seq_len, batch, -1), total

    def evaluate(
        self, tokens_in: np.ndarray, tokens_target: np.ndarray
    ) -> tuple[float, LayerSavings]:
        """Perplexity plus savings on a token batch (lower ppl is better)."""
        logits, savings = self.forward(tokens_in)
        return perplexity(CrossEntropyLoss()(logits, tokens_target)), savings


class DualizedSeq2Seq:
    """Dual-module version of a trained :class:`ProxySeq2Seq` (GNMT proxy)."""

    def __init__(
        self,
        model: ProxySeq2Seq,
        dual_encoder: DualModuleLSTMCell,
        dual_decoder: DualModuleLSTMCell,
    ):
        self.model = model
        self.dual_encoder = dual_encoder
        self.dual_decoder = dual_decoder

    @classmethod
    def build(
        cls,
        model: ProxySeq2Seq,
        calibration_src: np.ndarray,
        calibration_tgt_in: np.ndarray,
        reduction: float = 0.25,
        weight_bits: int = 4,
        input_bits: int = 4,
        threshold: float | dict[str, float] = 1.0,
        rng: np.random.Generator | None = None,
    ) -> "DualizedSeq2Seq":
        """Distill QDR cells for both the encoder and decoder LSTMs."""
        rng = rng if rng is not None else np.random.default_rng(0)
        cells = (model.encoder.cells[0], model.decoder.cells[0])
        src = model.src_embedding(np.asarray(calibration_src))
        tgt = model.tgt_embedding(np.asarray(calibration_tgt_in))
        encoder, decoder = (
            _dualize_cell(cell, xs, reduction, weight_bits, input_bits, threshold, rng)
            for cell, xs in zip(cells, (src, tgt))
        )
        return cls(model, encoder, decoder)

    def set_thresholds(self, threshold: float | dict[str, float]) -> None:
        """Set the same gate threshold(s) on both cells.

        A dict updates only the gates it names.

        Raises:
            ValueError: if a dict names a gate the cells do not have.
        """
        for dual in (self.dual_encoder, self.dual_decoder):
            merged = (
                {**dual.thresholds, **threshold}
                if isinstance(threshold, dict)
                else threshold
            )
            dual.thresholds.update(
                _resolve_gate_thresholds(merged, tuple(dual.thresholds))
            )

    def set_thresholds_by_fraction(
        self, fraction: float, src: np.ndarray, tgt_in: np.ndarray
    ) -> None:
        """Tune every gate threshold to a target insensitive fraction.

        Gate pre-activation quantiles are measured from a teacher-forced
        calibration pass through each dual cell.
        """
        for dual, emb, tokens in (
            (self.dual_encoder, self.model.src_embedding, src),
            (self.dual_decoder, self.model.tgt_embedding, tgt_in),
        ):
            xs = emb(np.asarray(tokens))
            layer = ("seq2seq", id(dual))
            _tune_gate_thresholds(dual, xs, dual.accurate, fraction, layer)

    def greedy_decode(
        self, src: np.ndarray, max_len: int
    ) -> tuple[np.ndarray, LayerSavings]:
        """Greedy decoding through the dual-module cells; returns tokens + savings.

        Mirrors the accurate model's decode path: if the model carries an
        attention module (:class:`repro.models.attention.
        AttentionProxySeq2Seq`), the dual encoder's outputs serve as the
        attention memory and each decoder state is attention-combined
        before the output head.
        """
        total = LayerSavings()
        src_emb = self.model.src_embedding(np.asarray(src))
        memory, enc_state, reports = self.dual_encoder.run_sequence(src_emb)
        for report in reports:
            total = total.merge(report.savings)
        attention = getattr(self.model, "attention", None)
        batch = src.shape[1]
        current = np.full(batch, self.model.BOS, dtype=np.int64)
        outputs = np.empty((max_len, batch), dtype=np.int64)
        state = enc_state
        for t in range(max_len):
            emb = self.model.tgt_embedding(current[None, :])[0]
            state, report = self.dual_decoder.forward(emb, state)
            total = total.merge(report.savings)
            head_in = self.dual_decoder.accurate.hidden(state)
            if attention is not None:
                head_in, _ = attention.forward_step(head_in, memory)
            logits = self.model.head(head_in)
            current = logits.argmax(axis=-1)
            outputs[t] = current
        return outputs, total

    def evaluate(
        self, task, samples: int = 64, rng: np.random.Generator | None = None
    ) -> tuple[float, LayerSavings]:
        """Token-accuracy score plus savings on fresh synthetic pairs."""
        rng = rng if rng is not None else np.random.default_rng(1234)
        src, tgt = task.sample(samples, rng)
        pred, savings = self.greedy_decode(src, max_len=tgt.shape[0])
        return task.score(pred, tgt), savings


# -- helpers -------------------------------------------------------------------

#: accurate cell type -> (approximate class, distill function, dual class)
_DUAL_RECIPES = {
    LSTMCell: (ApproximateLSTMCell, distill_lstm_cell, DualModuleLSTMCell),
    GRUCell: (ApproximateGRUCell, distill_gru_cell, DualModuleGRUCell),
}


def _dualize_cell(
    cell, calibration_sequences, reduction, weight_bits, input_bits, threshold, rng
):
    """Build, distill and wrap the QDR twin of one accurate recurrent cell."""
    approx_class, distill, dual_class = _DUAL_RECIPES[type(cell)]
    approx = approx_class(
        cell.input_size,
        cell.hidden_size,
        reduced_dim(cell.input_size, reduction),
        reduced_dim(cell.hidden_size, reduction),
        rng=rng,
        weight_bits=weight_bits,
        input_bits=input_bits,
    )
    distill(cell, approx, calibration_sequences)
    return dual_class(cell, approx, threshold)


def _tune_gate_thresholds(dual, xs: np.ndarray, step, fraction: float, layer: tuple):
    """Tune each gate threshold of ``dual`` to ``fraction`` over ``xs``.

    Unrolls ``step`` (the dual cell, or its accurate cell for a
    teacher-forced pass) and sets each gate threshold to the matching
    quantile of the speculated pre-activations; returns the hidden outputs.
    """
    hidden = dual.accurate.hidden

    def speculate_then_step(x, state):
        pre = dual.approx.pre_activations(x, hidden(state), quantized=True)
        return step(x, state)[0], pre

    outputs, _, pres = dual.accurate.unroll(xs, step=speculate_then_step)
    hs = dual.accurate.hidden_size
    for k, (gate, act_name) in enumerate(dual.GATES):
        gate_pre = np.concatenate([pre[:, k * hs : (k + 1) * hs] for pre in pres])
        dual.thresholds[gate] = tune_threshold_cached(
            gate_pre, act_name, fraction, layer=(*layer, gate)
        )
    return outputs
