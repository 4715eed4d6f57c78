"""End-to-end integration tests across the full stack.

These exercise complete paper flows: train -> distill -> switch -> trace
-> simulate -> compare, crossing every subpackage boundary.
"""

import numpy as np
import pytest

from repro.baselines import eyeriss, predict_cnvlutin
from repro.models import get_model_spec
from repro.models.dualize import DualizedCNN, DualizedLanguageModel
from repro.models.layer_spec import ModelSpec
from repro.models.proxies import (
    ProxyLanguageModel,
    evaluate_classifier,
    evaluate_language_model,
    proxy_alexnet,
    train_classifier,
    train_language_model,
)
from repro.nn.data import GaussianMixtureImages, ZipfTokenStream
from repro.sim import DuetAccelerator
from repro.sim.config import STAGES, stage_config
from repro.workloads import cnn_workloads, rnn_workloads, trace_cnn_workloads


@pytest.fixture(scope="module")
def cnn_flow():
    """Train, dualize and threshold-tune a proxy CNN once per module."""
    rng = np.random.default_rng(77)
    ds = GaussianMixtureImages(num_classes=6, noise=0.5)
    model = proxy_alexnet(num_classes=6, rng=rng)
    train_classifier(model, ds, steps=50, rng=rng)
    cal, _ = ds.sample(16, rng)
    dual = DualizedCNN.build(model, cal, reduction=0.15, rng=rng)
    dual.set_thresholds_by_fraction(0.6, cal)
    return model, ds, dual


class TestCnnEndToEnd:
    def test_quality_preserved_through_full_flow(self, cnn_flow):
        model, ds, dual = cnn_flow
        base = evaluate_classifier(model, ds, samples=128,
                                   rng=np.random.default_rng(1))
        images, labels = ds.sample(128, np.random.default_rng(1))
        acc, savings = dual.evaluate(images, labels)
        assert acc > base - 0.1
        assert savings.flops_reduction > 1.2

    def test_traced_maps_drive_all_stages(self, cnn_flow, rng):
        """Measured maps flow into every simulator stage with the expected
        latency ordering."""
        _, ds, dual = cnn_flow
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        model_spec = ModelSpec("traced", "cnn", [w.spec for w in workloads])
        cycles = {}
        for stage in STAGES:
            r = DuetAccelerator(stage=stage).run(model_spec, workloads=workloads)
            cycles[stage] = r.total_cycles
        assert cycles["BASE"] >= cycles["OS"] >= cycles["BOS"]
        assert cycles["IOS"] >= cycles["DUET"]
        assert cycles["DUET"] < cycles["BASE"]

    def test_traced_maps_drive_baselines(self, cnn_flow, rng):
        _, ds, dual = cnn_flow
        image, _ = ds.sample(1, rng)
        workloads = trace_cnn_workloads(dual, image[0])
        model_spec = ModelSpec("traced", "cnn", [w.spec for w in workloads])
        duet = DuetAccelerator(stage="DUET").run(model_spec, workloads=workloads)
        for acc in (eyeriss(), predict_cnvlutin()):
            r = acc.run(model_spec, workloads)
            assert r.total_cycles >= duet.total_cycles
            assert r.energy.total > duet.energy.total


class TestRnnEndToEnd:
    def test_lm_flow_quality_and_savings(self):
        rng = np.random.default_rng(88)
        stream = ZipfTokenStream(vocab_size=40, branching=4)
        model = ProxyLanguageModel(40, embed_dim=16, hidden_size=32, rng=rng)
        train_language_model(model, stream, steps=60, seq_len=12, rng=rng)
        base_ppl = evaluate_language_model(model, stream, seq_len=12)

        cal = stream.sample(12, 6, rng)
        dual = DualizedLanguageModel.build(model, cal, reduction=0.3, rng=rng)
        dual.set_thresholds_by_fraction(0.5, cal)
        tokens_in, tokens_tgt = stream.lm_batch(12, 8, rng)
        ppl, savings = dual.evaluate(tokens_in, tokens_tgt)
        assert ppl < base_ppl * 1.5
        assert savings.weight_access_reduction > 1.1

    def test_measured_fraction_matches_simulated_saving(self):
        """The algorithm's sensitive fraction and the simulator's DRAM
        reduction must agree: both are driven by the same switching maps."""
        spec = get_model_spec("lstm")
        wl = rnn_workloads(spec)
        mean_sensitive = float(
            np.mean([w.sensitive_fraction for w in wl])
        )
        base = DuetAccelerator(config=stage_config("BASE")).run(
            spec, workloads=wl
        )
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        dram_ratio = sum(l.dram_bytes for l in duet.layers) / sum(
            l.dram_bytes for l in base.layers
        )
        assert dram_ratio == pytest.approx(mean_sensitive, abs=0.03)


class TestWholeSuiteProperties:
    @pytest.mark.parametrize("name", ["alexnet", "resnet18", "resnet50", "vgg16"])
    def test_duet_always_wins_cnn(self, name):
        spec = get_model_spec(name)
        wl = cnn_workloads(spec)
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        assert duet.speedup_over(base) > 1.5
        assert duet.energy_saving_over(base) > 1.3

    def test_deterministic_simulation(self):
        spec = get_model_spec("alexnet")
        a = DuetAccelerator(stage="DUET").run(spec)
        b = DuetAccelerator(stage="DUET").run(spec)
        assert a.total_cycles == b.total_cycles
        assert a.energy.total == b.energy.total

    def test_report_energy_consistency(self):
        """Roll-up energy equals the sum of per-layer components."""
        spec = get_model_spec("resnet18")
        report = DuetAccelerator(stage="DUET").run(spec)
        total = sum(layer.energy.total for layer in report.layers)
        assert report.energy.total == pytest.approx(total)
