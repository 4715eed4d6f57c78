"""Online dual-module layers: speculate, switch, execute, mix.

Each ``DualModule*`` pairs an accurate layer from :mod:`repro.nn` with a
distilled approximate module from :mod:`repro.core.approx` and executes the
paper's online procedure (Fig. 3):

1. run the approximate module on the (quantized) input,
2. generate the switching map ``m`` (Eq. 3),
3. run the accurate module only where ``m == 1``,
4. assemble the final output (Eq. 2) and apply the nonlinearity.

Output semantics follow the paper's hardware:

- ReLU layers (CNN path): insensitive outputs are *set to zero* -- the
  approximate values are used only for the switching decision, and the
  resulting zeros make the corrected OMap double as the next layer's IMap
  (Section III-C).
- sigmoid/tanh layers (RNN path): insensitive outputs keep the
  *dequantized approximate activations* (Section IV-B), which is why the
  Speculator has a dequantizer and stores approximate results to the GLB
  for RNNs only.

Every forward also returns a :class:`DualModuleReport` with the switching
maps and a :class:`~repro.core.stats.LayerSavings` account of MACs and
weight reads, which the architecture simulator consumes as its workload
description.

MAC/weight-read accounting treats each batch row independently (the
paper's RNN evaluation uses batch size one; for CNNs the counts are summed
over the batch, matching per-image execution on the accelerator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.approx import (
    ApproximateConv2d,
    ApproximateGRUCell,
    ApproximateLinear,
    ApproximateLSTMCell,
)
from repro.core.cache import speculate_cached, switching_map_cached
from repro.core.stats import LayerSavings
from repro.core.switching import (
    correct_omap_after_relu,
    mix_outputs,
    switching_map,
)
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear
from repro.nn.recurrent import GRUCell, LSTMCell

__all__ = [
    "DualModuleReport",
    "DualModuleLinear",
    "DualModuleConv2d",
    "DualModuleLSTMCell",
    "DualModuleGRUCell",
]


@dataclass
class DualModuleReport:
    """Per-forward record of switching decisions and costs.

    Attributes:
        switching_map: the OMap ``m`` (1 = computed by the Executor).  For
            recurrent cells this is the stacked all-gates map.
        corrected_map: ReLU layers only -- the OMap after the paper's
            1-to-0 correction step; reusable as the next layer's IMap.
        savings: MAC / weight-read accounting for this forward.
        gate_maps: recurrent cells only -- per-gate switching maps.
    """

    switching_map: np.ndarray
    savings: LayerSavings
    corrected_map: np.ndarray | None = None
    gate_maps: dict[str, np.ndarray] = field(default_factory=dict)


def _resolve_gate_thresholds(
    threshold: float | dict[str, float], gate_names: tuple[str, ...]
) -> dict[str, float]:
    """Expand a scalar threshold to a per-gate dict, validating dict keys."""
    if isinstance(threshold, dict):
        unknown = set(threshold) - set(gate_names)
        if unknown:
            raise ValueError(
                f"unknown gates {sorted(unknown)}; expected {list(gate_names)}"
            )
        missing = set(gate_names) - set(threshold)
        if missing:
            raise ValueError(f"missing thresholds for gates: {sorted(missing)}")
        return {g: float(threshold[g]) for g in gate_names}
    return {g: float(threshold) for g in gate_names}


def _checked_imap(imap: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An IMap validated against its layer input: same shape, 0/1 only."""
    imap = np.asarray(imap)
    if imap.shape != shape:
        raise ValueError(f"imap shape {imap.shape} does not match input shape {shape}")
    if imap.dtype != np.bool_ and not np.all((imap == 0) | (imap == 1)):
        raise ValueError("imap holds values outside {0, 1}")
    return imap


def _receptive_nonzeros(
    imap: np.ndarray, kernel_size: tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Nonzero inputs in each receptive field of a 0/1 IMap, ``(N, H', W')``.

    The row sums of ``im2col(imap)`` without building it: k x k strided
    window sums of the zero-padded per-position channel count, in int64.
    """
    counts = np.count_nonzero(imap, axis=1)
    n, h, w = counts.shape
    kh, kw = kernel_size
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    if padding:
        counts = np.pad(counts, ((0, 0), (padding, padding), (padding, padding)))
    sums = np.zeros((n, out_h, out_w), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            sums += counts[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return sums


class DualModuleLinear:
    """Dual-module feed-forward layer (the paper's running FF example).

    Args:
        accurate: the pre-trained ``Linear`` layer (teacher / Executor side).
        approx: the distilled :class:`ApproximateLinear` (Speculator side).
        activation: ``relu``, ``sigmoid`` or ``tanh``; selects both the
            nonlinearity and the switching rule.
        threshold: the tuned switching threshold ``theta``.
    """

    def __init__(
        self,
        accurate: Linear,
        approx: ApproximateLinear,
        activation: str,
        threshold: float,
    ):
        if accurate.in_features != approx.in_features:
            raise ValueError("accurate/approx input dimensions disagree")
        if accurate.out_features != approx.out_features:
            raise ValueError("accurate/approx output dimensions disagree")
        self.accurate = accurate
        self.approx = approx
        self.activation = activation
        self.threshold = float(threshold)
        self._act = F.activation_by_name(activation)

    def forward(
        self, x: np.ndarray, imap: np.ndarray | None = None
    ) -> tuple[np.ndarray, DualModuleReport]:
        """Run dual-module processing on a batch.

        Args:
            x: inputs of shape ``(batch, in_features)``.
            imap: optional input sparsity map of the same shape (1 =
                nonzero); reduces the executed-MAC account per the paper's
                integrated input+output switching (IOS).

        Returns:
            ``(activated_output, report)``.

        Raises:
            ValueError: if ``imap`` has another shape or a value outside
                {0, 1}.
        """
        x = np.asarray(x, dtype=np.float64)
        batch = x.shape[0]
        d, n = self.accurate.in_features, self.accurate.out_features
        if imap is not None:
            imap = _checked_imap(imap, x.shape)

        y_approx = self.approx.forward(x)
        omap = switching_map(y_approx, self.activation, self.threshold)

        y_acc = x @ self.accurate.weight.data.T
        if self.accurate.bias is not None:
            y_acc = y_acc + self.accurate.bias.data

        if self.activation == "relu":
            mixed = np.where(omap.astype(bool), y_acc, 0.0)
            out = F.relu(mixed)
            corrected = correct_omap_after_relu(omap, out)
        else:
            mixed = mix_outputs(y_acc, y_approx, omap)
            out = self._act(mixed)
            corrected = None

        sensitive = int(omap.sum())
        if imap is not None:
            nnz_per_row = imap.sum(axis=1)
            executed = int((omap.sum(axis=1) * nnz_per_row).sum())
        else:
            executed = sensitive * d
        savings = LayerSavings(
            dense_macs=batch * n * d,
            executed_macs=executed,
            speculation_macs=batch * self.approx.macs_per_vector(),
            speculation_additions=batch * self.approx.additions_per_vector(),
            dense_weight_reads=batch * n * d,
            weight_reads=sensitive * d,
            speculation_weight_reads=batch * self.approx.weight.size,
            outputs_total=batch * n,
            outputs_sensitive=sensitive,
        )
        return out, DualModuleReport(omap, savings, corrected_map=corrected)

    __call__ = forward

    def __repr__(self) -> str:
        return (
            f"DualModuleLinear({self.accurate!r}, activation={self.activation!r}, "
            f"theta={self.threshold})"
        )


class DualModuleConv2d:
    """Dual-module convolution layer via the im2col lowering (CNN path).

    Insensitive outputs are zeroed (ReLU semantics), the OMap is corrected
    after ReLU, and the corrected map is returned so the caller can feed it
    to the next layer as its IMap -- the paper's "pay once, use twice".

    Each input is lowered once: :meth:`speculate` takes its ``im2col``
    columns and runs the Speculator on them (both memoized, see
    :func:`~repro.core.cache.speculate_cached`), and :meth:`execute` runs
    the accurate GEMM on the same columns.  :meth:`forward` is the two in
    sequence; a caller that needs the approximate pre-activations before
    switching (threshold calibration) calls them separately and
    speculates once.
    """

    def __init__(
        self,
        accurate: Conv2d,
        approx: ApproximateConv2d,
        threshold: float,
    ):
        if accurate.kernel_size != approx.kernel_size:
            raise ValueError("accurate/approx kernel sizes disagree")
        if accurate.stride != approx.stride or accurate.padding != approx.padding:
            raise ValueError("accurate/approx geometry disagrees")
        if accurate.out_channels != approx.out_channels:
            raise ValueError("accurate/approx channel counts disagree")
        self.accurate = accurate
        self.approx = approx
        self.threshold = float(threshold)

    def speculate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, str | None]:
        """Lower a batch once and run the Speculator on it.

        Args:
            x: inputs of shape ``(N, C, H, W)``.

        Returns:
            ``(cols, y_approx, key)``: the shared read-only ``im2col``
            columns, the approximate pre-activations ``(N, C_out, H',
            W')`` and the content key that stands for them in the
            threshold and switching-map memos (``None`` with the caches
            off).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.accurate.in_channels:
            raise ValueError(
                f"expected {self.accurate.in_channels} channels, got shape {x.shape}"
            )
        return speculate_cached(self.approx, x)

    def execute(
        self,
        x: np.ndarray,
        cols: np.ndarray,
        y_approx: np.ndarray,
        imap: np.ndarray | None = None,
        key: str | None = None,
    ) -> tuple[np.ndarray, DualModuleReport]:
        """Switch on ``y_approx`` and run the Executor on ``cols``.

        Args:
            x: the batch ``(cols, y_approx)`` came from (:meth:`speculate`).
            cols / y_approx / key: :meth:`speculate`'s result for ``x``;
                without ``key`` the switching-map memo hashes ``y_approx``.
            imap: optional 0/1 input sparsity map of ``x``'s shape.

        Returns:
            ``(activated_output, report)`` as :meth:`forward`.

        Raises:
            ValueError: if ``imap`` has another shape or a value outside
                {0, 1}.
        """
        if imap is not None:
            imap = _checked_imap(imap, np.shape(x))
        n_batch, _, out_h, out_w = y_approx.shape
        receptive = cols.shape[1]

        # tuning sweeps re-evaluate the same batch at repeated thresholds;
        # the map is memoized on (layer, content key, threshold)
        omap = switching_map_cached(
            y_approx, "relu", self.threshold, layer=("conv", id(self.accurate)), key=key
        )

        y_acc = self.accurate.forward_columns(cols, (n_batch, out_h, out_w))
        mixed = np.where(omap.astype(bool), y_acc, 0.0)
        out = F.relu(mixed)
        corrected = correct_omap_after_relu(omap, out)

        sensitive = int(omap.sum())
        n_out = out.size
        if imap is not None:
            # effective receptive-field size per output spatial position
            effective = _receptive_nonzeros(
                imap,
                self.accurate.kernel_size,
                self.accurate.stride,
                self.accurate.padding,
            )
            executed = int((omap * effective[:, None, :, :]).sum())
        else:
            executed = sensitive * receptive
        savings = LayerSavings(
            dense_macs=n_out * receptive,
            executed_macs=executed,
            speculation_macs=(n_out // self.accurate.out_channels)
            * self.accurate.out_channels
            * self.approx.reduced_features,
            speculation_additions=(n_out // self.accurate.out_channels)
            * self.approx.inner.additions_per_vector(),
            dense_weight_reads=n_out * receptive,
            weight_reads=sensitive * receptive,
            speculation_weight_reads=n_batch * self.approx.inner.weight.size,
            outputs_total=n_out,
            outputs_sensitive=sensitive,
        )
        return out, DualModuleReport(omap, savings, corrected_map=corrected)

    def forward(
        self, x: np.ndarray, imap: np.ndarray | None = None
    ) -> tuple[np.ndarray, DualModuleReport]:
        """Run dual-module processing on a batch of images.

        Args:
            x: inputs of shape ``(N, C, H, W)``.
            imap: optional 0/1 input sparsity map of the same shape.

        Returns:
            ``(activated_output, report)``; ``report.corrected_map`` is the
            next layer's IMap.

        Raises:
            ValueError: on a wrong channel count, or an ``imap`` of another
                shape or with a value outside {0, 1}.
        """
        cols, y_approx, key = self.speculate(x)
        return self.execute(x, cols, y_approx, imap=imap, key=key)

    __call__ = forward

    def __repr__(self) -> str:
        return f"DualModuleConv2d({self.accurate!r}, theta={self.threshold})"


class _DualModuleRecurrentCell:
    """Per-gate dual-module processing shared by the LSTM and GRU cells.

    Each subclass names its ``GATES`` (``(gate, activation)`` in stacking
    order) and implements the gate-mixing ``forward(x, state)``; states
    follow the accurate cell's protocol (:meth:`~repro.nn.recurrent.
    LSTMCell.init_state` / ``hidden``).  Weight rows of both ``w_ih`` and
    ``w_hh`` are only "fetched" for sensitive neurons, which is the
    memory-access saving of Section IV-B.

    Args:
        accurate: the pre-trained recurrent cell.
        approx: its distilled QDR cell.
        threshold: scalar or per-gate dict over every gate in ``GATES``.
    """

    GATES: tuple[tuple[str, str], ...]

    def __init__(
        self,
        accurate: LSTMCell | GRUCell,
        approx: ApproximateLSTMCell | ApproximateGRUCell,
        threshold: float | dict[str, float],
    ):
        if accurate.input_size != approx.input_size:
            raise ValueError("accurate/approx input sizes disagree")
        if accurate.hidden_size != approx.hidden_size:
            raise ValueError("accurate/approx hidden sizes disagree")
        self.accurate = accurate
        self.approx = approx
        self.thresholds = _resolve_gate_thresholds(
            threshold, tuple(g for g, _ in self.GATES)
        )

    def _switch(
        self, k: int, pre_acc: np.ndarray, pre_approx: np.ndarray, maps: dict
    ) -> np.ndarray:
        """Switch gate ``GATES[k]``: record its map, return its mixed activation.

        ``pre_acc`` is the gate's accurate pre-activation and
        ``pre_approx`` the Speculator's all-gates output.
        """
        gate, act_name = self.GATES[k]
        hs = self.accurate.hidden_size
        speculated = pre_approx[:, k * hs : (k + 1) * hs]
        gmap = switching_map(speculated, act_name, self.thresholds[gate])
        maps[gate] = gmap
        return F.activation_by_name(act_name)(mix_outputs(pre_acc, speculated, gmap))

    def _report(self, batch: int, gate_maps: dict[str, np.ndarray]) -> DualModuleReport:
        """The stacked OMap and MAC / weight-read account of one step."""
        hs = self.accurate.hidden_size
        rows = len(self.GATES) * hs
        omap = np.concatenate([gate_maps[g] for g, _ in self.GATES], axis=1)
        sensitive = int(omap.sum())
        row_cost = self.accurate.input_size + hs
        savings = LayerSavings(
            dense_macs=batch * rows * row_cost,
            executed_macs=sensitive * row_cost,
            speculation_macs=batch * self.approx.macs_per_step(),
            speculation_additions=batch * self.approx.additions_per_step(),
            dense_weight_reads=batch * rows * row_cost,
            weight_reads=sensitive * row_cost,
            speculation_weight_reads=batch
            * (self.approx.w_ih.size + self.approx.w_hh.size),
            outputs_total=batch * rows,
            outputs_sensitive=sensitive,
        )
        return DualModuleReport(omap, savings, gate_maps=gate_maps)

    def __call__(self, x: np.ndarray, state):
        return self.forward(x, state)

    def run_sequence(
        self, xs: np.ndarray, state=None
    ) -> tuple[np.ndarray, object, list[DualModuleReport]]:
        """Unroll over ``(T, batch, input_size)``; returns (outputs, state, reports)."""
        xs = np.asarray(xs, dtype=np.float64)
        return self.accurate.unroll(xs, state, step=self.forward)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.accurate!r}, thetas={self.thresholds})"


class DualModuleLSTMCell(_DualModuleRecurrentCell):
    """Dual-module LSTM cell with per-gate speculation (RNN path).

    For each of the four gates the Speculator produces approximate
    pre-activations; insensitive neurons keep the approximate *activated*
    value while sensitive neurons are recomputed by the Executor.

    Args:
        accurate: the pre-trained :class:`~repro.nn.recurrent.LSTMCell`.
        approx: the distilled :class:`ApproximateLSTMCell`.
        threshold: scalar or per-gate dict ``{"i","f","g","o"}``.
    """

    GATES = (("i", "sigmoid"), ("f", "sigmoid"), ("g", "tanh"), ("o", "sigmoid"))

    def forward(
        self, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]
    ) -> tuple[tuple[np.ndarray, np.ndarray], DualModuleReport]:
        """Run one dual-module LSTM step.

        Args:
            x: input of shape ``(batch, input_size)``.
            state: ``(h, c)`` from the previous step.

        Returns:
            ``((h_next, c_next), report)``.
        """
        x = np.asarray(x, dtype=np.float64)
        h_prev, c_prev = state
        hs = self.accurate.hidden_size

        pre_approx = self.approx.pre_activations(x, h_prev, quantized=True)
        pre_acc = (
            x @ self.accurate.w_ih.data.T
            + h_prev @ self.accurate.w_hh.data.T
            + self.accurate.b.data
        )

        maps: dict[str, np.ndarray] = {}
        i, f, g, o = (
            self._switch(k, pre_acc[:, k * hs : (k + 1) * hs], pre_approx, maps)
            for k in range(4)
        )
        c_next = f * c_prev + i * g
        h_next = o * F.tanh(c_next)
        return (h_next, c_next), self._report(x.shape[0], maps)


class DualModuleGRUCell(_DualModuleRecurrentCell):
    """Dual-module GRU cell with per-gate speculation (RNN path).

    The reset gate ``r`` used in the accurate candidate pre-activation is
    the *mixed* reset gate, so insensitive reset neurons feed their
    approximate value forward exactly as the hardware would.
    """

    GATES = (("r", "sigmoid"), ("z", "sigmoid"), ("n", "tanh"))

    def forward(
        self, x: np.ndarray, h_prev: np.ndarray
    ) -> tuple[np.ndarray, DualModuleReport]:
        """Run one dual-module GRU step; returns ``(h_next, report)``."""
        x = np.asarray(x, dtype=np.float64)
        hs = self.accurate.hidden_size

        pre_approx = self.approx.pre_activations(x, h_prev, quantized=True)
        gi = x @ self.accurate.w_ih.data.T + self.accurate.b_ih.data
        gh = h_prev @ self.accurate.w_hh.data.T + self.accurate.b_hh.data

        maps: dict[str, np.ndarray] = {}
        r = self._switch(0, gi[:, :hs] + gh[:, :hs], pre_approx, maps)
        z = self._switch(1, gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs], pre_approx, maps)
        # candidate gate (accurate path uses the mixed reset gate)
        n = self._switch(2, gi[:, 2 * hs :] + r * gh[:, 2 * hs :], pre_approx, maps)
        h_next = (1.0 - z) * n + z * h_prev
        return h_next, self._report(x.shape[0], maps)
