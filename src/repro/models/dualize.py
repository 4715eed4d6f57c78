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
)
from repro.core.stats import LayerSavings
from repro.core.cache import tune_threshold_cached
from repro.core.switching import imap_from_activations
from repro.models.proxies import ProxyCNN, ProxyLanguageModel, ProxySeq2Seq
from repro.nn.layers import Conv2d, ReLU
from repro.nn.losses import CrossEntropyLoss, perplexity, topk_accuracy
from repro.nn.recurrent import GRU, LSTM

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
        (:meth:`DualModuleConv2d.execute`).

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
                cols, y_approx = slot.dual.speculate(x)
                theta = tune_threshold_cached(
                    y_approx,
                    "relu",
                    fractions[slot_counter],
                    layer=("conv", slot.index),
                )
                slot.dual.threshold = theta
                thetas.append(theta)
                x, _ = slot.dual.execute(x, cols, y_approx)
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
        embedded = model.embedding(np.asarray(calibration_tokens))
        layer_inputs = embedded
        dual_cells = []
        is_lstm = isinstance(model.rnn, LSTM)
        for cell in model.rnn.cells:
            kx = reduced_dim(cell.input_size, reduction)
            kh = reduced_dim(cell.hidden_size, reduction)
            if is_lstm:
                approx = ApproximateLSTMCell(
                    cell.input_size,
                    cell.hidden_size,
                    kx,
                    kh,
                    rng=rng,
                    weight_bits=weight_bits,
                    input_bits=input_bits,
                )
                distill_lstm_cell(cell, approx, layer_inputs)
                dual_cells.append(DualModuleLSTMCell(cell, approx, threshold))
            else:
                approx = ApproximateGRUCell(
                    cell.input_size,
                    cell.hidden_size,
                    kx,
                    kh,
                    rng=rng,
                    weight_bits=weight_bits,
                    input_bits=input_bits,
                )
                distill_gru_cell(cell, approx, layer_inputs)
                dual_cells.append(DualModuleGRUCell(cell, approx, threshold))
            # propagate accurately to get the next layer's calibration input
            layer_inputs = _run_accurate_layer(cell, layer_inputs, is_lstm)
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
            hs = dual.accurate.hidden_size
            gate_pre: dict[str, list[np.ndarray]] = {g: [] for g, _ in dual.GATES}
            state = _init_state(dual, xs.shape[1])
            seq_len = xs.shape[0]
            outputs = np.empty((seq_len, xs.shape[1], hs))
            for t in range(seq_len):
                h_prev = state[0] if isinstance(state, tuple) else state
                pre_approx = dual.approx.pre_activations(xs[t], h_prev, quantized=True)
                for idx, (gate, _) in enumerate(dual.GATES):
                    gate_pre[gate].append(pre_approx[:, idx * hs : (idx + 1) * hs])
                state, _ = _step_dual(dual, xs[t], state)
                outputs[t] = state[0] if isinstance(state, tuple) else state
            for gate, act_name in dual.GATES:
                stacked = np.concatenate(gate_pre[gate])
                dual.thresholds[gate] = tune_threshold_cached(
                    stacked, act_name, fraction, layer=("rnn", layer_idx, gate)
                )
            xs = outputs

    def forward(self, tokens: np.ndarray) -> tuple[np.ndarray, LayerSavings]:
        """Dual-module LM forward; returns ``(logits, total savings)``."""
        xs = self.model.embedding(np.asarray(tokens))
        total = LayerSavings()
        for dual in self.dual_cells:
            if isinstance(dual, DualModuleLSTMCell):
                xs, _, reports = dual.run_sequence(xs)
            else:
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
        duals = []
        for lstm_module, emb, tokens in (
            (model.encoder, model.src_embedding, calibration_src),
            (model.decoder, model.tgt_embedding, calibration_tgt_in),
        ):
            cell = lstm_module.cells[0]
            approx = ApproximateLSTMCell(
                cell.input_size,
                cell.hidden_size,
                reduced_dim(cell.input_size, reduction),
                reduced_dim(cell.hidden_size, reduction),
                rng=rng,
                weight_bits=weight_bits,
                input_bits=input_bits,
            )
            distill_lstm_cell(cell, approx, emb(np.asarray(tokens)))
            duals.append(DualModuleLSTMCell(cell, approx, threshold))
        return cls(model, duals[0], duals[1])

    def set_thresholds(self, threshold: float | dict[str, float]) -> None:
        """Set the same gate threshold(s) on both cells."""
        for dual in (self.dual_encoder, self.dual_decoder):
            if isinstance(threshold, dict):
                dual.thresholds.update(
                    {k: float(v) for k, v in threshold.items()}
                )
            else:
                for gate in dual.thresholds:
                    dual.thresholds[gate] = float(threshold)

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
            hs = dual.accurate.hidden_size
            state = dual.accurate.init_state(xs.shape[1])
            gate_pre: dict[str, list[np.ndarray]] = {g: [] for g, _ in dual.GATES}
            for t in range(xs.shape[0]):
                pre = dual.approx.pre_activations(xs[t], state[0], quantized=True)
                for idx, (gate, _) in enumerate(dual.GATES):
                    gate_pre[gate].append(pre[:, idx * hs : (idx + 1) * hs])
                state, _ = dual.accurate(xs[t], state)
            for gate, act_name in dual.GATES:
                dual.thresholds[gate] = tune_threshold_cached(
                    np.concatenate(gate_pre[gate]),
                    act_name,
                    fraction,
                    layer=("seq2seq", id(dual), gate),
                )

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
            head_in = state[0]
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


def _run_accurate_layer(cell, xs: np.ndarray, is_lstm: bool) -> np.ndarray:
    """Unroll one accurate recurrent layer over a sequence."""
    seq_len, batch = xs.shape[0], xs.shape[1]
    outputs = np.empty((seq_len, batch, cell.hidden_size))
    if is_lstm:
        state = cell.init_state(batch)
        for t in range(seq_len):
            state, _ = cell(xs[t], state)
            outputs[t] = state[0]
    else:
        h = cell.init_state(batch)
        for t in range(seq_len):
            h, _ = cell(xs[t], h)
            outputs[t] = h
    return outputs


def _init_state(dual, batch: int):
    """Initial state for a dual cell (tuple for LSTM, array for GRU)."""
    return dual.accurate.init_state(batch)


def _step_dual(dual, x, state):
    """One step of a dual cell, normalising the return signature."""
    if isinstance(dual, DualModuleLSTMCell):
        return dual.forward(x, state)
    new_h, report = dual.forward(x, state)
    return new_h, report
