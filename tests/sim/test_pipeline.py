"""Tests for the CNN layer pipeline and RNN gate-level pipeline."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.models.registry import MODEL_REGISTRY
from repro.reliability.context import GuardSettings, ReliabilityContext
from repro.sim.accelerator import DuetAccelerator
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.sim.pipeline import CnnPipeline, RnnPipeline
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads


@pytest.fixture(scope="module")
def alexnet_setup():
    spec = get_model_spec("alexnet")
    return spec, cnn_workloads(spec)


@pytest.fixture(scope="module")
def lstm_setup():
    spec = get_model_spec("lstm")
    return spec, rnn_workloads(spec)


class TestCnnPipeline:
    def test_report_structure(self, alexnet_setup):
        spec, wl = alexnet_setup
        report = CnnPipeline(stage_config("DUET")).run(spec, wl)
        assert len(report.layers) == 5
        assert report.layers[0].name == "conv1"
        assert report.total_cycles > 0
        assert report.latency_ms == pytest.approx(report.total_cycles / 1e6)

    def test_layer_latency_covers_compute_and_memory(self, alexnet_setup):
        spec, wl = alexnet_setup
        report = CnnPipeline(stage_config("DUET")).run(spec, wl)
        for layer in report.layers:
            assert layer.total_cycles >= layer.executor_cycles
            assert layer.total_cycles >= layer.memory_cycles

    def test_pipeline_hides_speculation(self, alexnet_setup):
        """Decoupled pipeline: disabling it serialises speculation and can
        only increase latency."""
        spec, wl = alexnet_setup
        piped = CnnPipeline(stage_config("DUET")).run(spec, wl)
        serial_cfg = dataclasses.replace(stage_config("DUET"), enable_pipeline=False)
        serial = CnnPipeline(serial_cfg).run(spec, wl)
        assert serial.total_cycles >= piped.total_cycles
        # in the pipelined run, speculation is (almost) fully hidden
        hidden_frac = 1 - sum(
            layer.exposed_speculation_cycles for layer in piped.layers
        ) / max(1, piped.speculator_cycles)
        assert hidden_frac > 0.8

    def test_no_speculation_for_last_layer(self, alexnet_setup):
        spec, wl = alexnet_setup
        report = CnnPipeline(stage_config("DUET")).run(spec, wl)
        assert report.layers[-1].speculator_cycles == 0

    def test_base_stage_has_no_speculator_energy(self, alexnet_setup):
        spec, wl = alexnet_setup
        report = CnnPipeline(stage_config("BASE")).run(spec, wl)
        assert report.energy.speculator_total == 0.0
        assert report.speculator_cycles == 0

    def test_duet_saves_energy_and_cycles(self, alexnet_setup):
        spec, wl = alexnet_setup
        duet = CnnPipeline(stage_config("DUET")).run(spec, wl)
        base = CnnPipeline(stage_config("BASE")).run(spec, wl)
        assert duet.total_cycles < base.total_cycles
        assert duet.energy.total < base.energy.total

    def test_dram_traffic_independent_of_stage(self, alexnet_setup):
        """CNN fmaps/weights stream once per layer regardless of skipping
        (zero-filled outputs are still stored)."""
        spec, wl = alexnet_setup
        duet = CnnPipeline(stage_config("DUET")).run(spec, wl)
        base = CnnPipeline(stage_config("BASE")).run(spec, wl)
        assert duet.layers[2].dram_bytes == base.layers[2].dram_bytes


class TestRnnPipeline:
    def test_report_structure(self, lstm_setup):
        spec, wl = lstm_setup
        report = RnnPipeline(stage_config("DUET")).run(spec, wl)
        assert len(report.layers) == 2
        assert report.total_cycles > 0

    def test_base_is_memory_bound(self, lstm_setup):
        """Paper Section IV-B: dense RNN execution is dominated by weight
        fetches from DRAM."""
        spec, wl = lstm_setup
        base = RnnPipeline(stage_config("BASE")).run(spec, wl)
        assert base.memory_cycles > base.compute_cycles

    def test_switching_halves_memory_traffic(self, lstm_setup):
        """With ~45% sensitive rows, DRAM traffic drops to ~45%."""
        spec, wl = lstm_setup
        base = RnnPipeline(stage_config("BASE")).run(spec, wl)
        duet = RnnPipeline(stage_config("DUET")).run(spec, wl)
        ratio = duet.memory_cycles / base.memory_cycles
        mean_sensitive = np.mean([w.sensitive_fraction for w in wl])
        assert ratio == pytest.approx(mean_sensitive, abs=0.05)

    def test_duet_speedup_in_paper_range(self, lstm_setup):
        spec, wl = lstm_setup
        base = RnnPipeline(stage_config("BASE")).run(spec, wl)
        duet = RnnPipeline(stage_config("DUET")).run(spec, wl)
        speedup = duet.speedup_over(base)
        assert 1.5 < speedup < 3.0  # paper: ~2.2x

    def test_exposed_speculation_only_input_gate(self, lstm_setup):
        """Per step, only the input gate's speculation is exposed: exposed
        cycles == seq_len x per-gate speculation cycles."""
        spec, wl = lstm_setup
        duet = RnnPipeline(stage_config("DUET")).run(spec, wl)
        for layer_report, workload in zip(duet.layers, wl):
            per_gate = layer_report.speculator_cycles / (
                workload.spec.seq_len * workload.spec.num_gates
            )
            expected = per_gate * workload.spec.seq_len
            assert layer_report.exposed_speculation_cycles == pytest.approx(
                expected, rel=1e-6
            )

    def test_small_rnn_weights_resident(self):
        """A tiny RNN layer fits in the GLB: weights fetched once, not per
        step, so DRAM traffic is far below seq_len x weights."""
        from repro.models.layer_spec import ModelSpec, RNNSpec

        spec = ModelSpec(
            "tiny", "rnn", [RNNSpec("l", "lstm", 64, 64, seq_len=20)]
        )
        wl = rnn_workloads(spec)
        base = RnnPipeline(stage_config("BASE")).run(spec, wl)
        weights_bytes = spec.rnn_layers[0].weight_elements * 2
        assert base.layers[0].dram_bytes < weights_bytes * 2


def _plain(value):
    """``value`` with numpy scalars cast to int/float, so the JSON text
    does not depend on how numpy spells its scalars."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _layers_digest(runs: dict) -> str:
    """SHA-256 over a canonical JSON of every run's ``LayerReport`` list."""
    doc = {
        key: [_plain(dataclasses.asdict(layer)) for layer in report.layers]
        for key, report in runs.items()
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _seed0_workloads(spec):
    sparsity = SparsityModel(seed=0)
    if spec.domain == "cnn":
        return cnn_workloads(spec, sparsity, include_fc=True)
    return rnn_workloads(spec, sparsity)


class TestPinnedReports:
    """Absolute per-layer reports, pinned by digest.

    The fast and slow paths share the per-layer report builder, so the
    fast==slow suites cannot see an error in it; this digest does.  It
    covers every zoo model at every evaluation stage (CNN classifiers
    included) plus a guarded flaky-DRAM campaign per domain.  A change
    that moves any cycle, MAC or energy figure must re-pin it on purpose.
    """

    DIGEST = "42bcf880a8ebec047d4aaeed798c89a0f0557043b88bd8de643d682eadf750d6"

    def test_zoo_and_flaky_campaign_reports_are_pinned(self):
        runs = {}
        for name in MODEL_REGISTRY:
            spec = get_model_spec(name)
            wl = _seed0_workloads(spec)
            for stage in STAGES:
                acc = DuetAccelerator(config=stage_config(stage))
                runs[f"{name}/{stage}"] = acc.run(spec, wl)
        for name in ("resnet18", "lstm"):
            spec = get_model_spec(name)
            ctx = ReliabilityContext("dram-flaky", seed=0, guards=GuardSettings())
            acc = DuetAccelerator(reliability=ctx)
            runs[f"dram-flaky/{name}"] = acc.run(spec, _seed0_workloads(spec))
        assert _layers_digest(runs) == self.DIGEST
