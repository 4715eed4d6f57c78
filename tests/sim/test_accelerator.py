"""Tests for the DuetAccelerator top level."""

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.sim import DuetAccelerator
from repro.sim.config import DuetConfig
from repro.workloads import SparsityModel, cnn_workloads


class TestConstruction:
    def test_stage_and_config_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            DuetAccelerator(config=DuetConfig(), stage="DUET")

    def test_defaults(self):
        acc = DuetAccelerator()
        assert acc.config.enable_output_switching

    def test_area_passthrough(self):
        b = DuetAccelerator().area()
        assert b.total > 0


class TestCnnRuns:
    @pytest.fixture(scope="class")
    def shared(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        return spec, wl

    def test_stage_latency_ordering(self, shared):
        spec, wl = shared
        latencies = {}
        for stage in ("BASE", "OS", "BOS", "IOS", "DUET"):
            latencies[stage] = (
                DuetAccelerator(stage=stage).run(spec, workloads=wl).total_cycles
            )
        assert latencies["BASE"] >= latencies["OS"]
        assert latencies["OS"] >= latencies["BOS"]
        assert latencies["IOS"] >= latencies["DUET"]
        assert latencies["BOS"] >= latencies["DUET"]

    def test_duet_speedup_in_paper_range(self, shared):
        spec, wl = shared
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        speedup = duet.speedup_over(base)
        assert 2.0 < speedup < 4.5  # paper whole-suite average: 2.24x

    def test_energy_saving_in_paper_range(self, shared):
        spec, wl = shared
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        saving = duet.energy_saving_over(base)
        assert 1.3 < saving < 3.5  # paper: 1.97x average

    def test_speculator_energy_small_fraction(self, shared):
        """Paper: Speculator consumes <7% of total energy."""
        spec, wl = shared
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        frac = duet.energy.speculator_total / duet.energy.total
        assert frac < 0.12

    def test_workloads_generated_when_absent(self):
        spec = get_model_spec("alexnet")
        report = DuetAccelerator(stage="DUET").run(spec)
        assert report.total_cycles > 0

    def test_custom_sparsity_changes_results(self):
        spec = get_model_spec("alexnet")
        sparse = DuetAccelerator(
            stage="DUET", sparsity=SparsityModel(cnn_sensitive_mean=0.2)
        ).run(spec)
        dense = DuetAccelerator(
            stage="DUET", sparsity=SparsityModel(cnn_sensitive_mean=0.8)
        ).run(spec)
        assert sparse.total_cycles < dense.total_cycles


class TestRnnRuns:
    @pytest.mark.parametrize("name", ["lstm", "gru", "gnmt"])
    def test_rnn_speedups_near_paper(self, name):
        spec = get_model_spec(name)
        from repro.workloads import rnn_workloads

        wl = rnn_workloads(spec)
        duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        assert 1.8 < duet.speedup_over(base) < 2.8  # paper ~2.2x

    def test_rnn_speculator_energy_tiny(self):
        """Paper: Speculator energy <1% of on-chip total for RNNs."""
        spec = get_model_spec("lstm")
        duet = DuetAccelerator(stage="DUET").run(spec)
        frac = duet.energy.speculator_total / duet.energy.on_chip
        assert frac < 0.05


class TestModelReportHelpers:
    def test_layer_lookup(self):
        spec = get_model_spec("alexnet")
        report = DuetAccelerator(stage="DUET").run(spec)
        assert report.layer("conv3").name == "conv3"
        with pytest.raises(KeyError):
            report.layer("conv99")

    def test_mean_utilization_bounds(self):
        spec = get_model_spec("alexnet")
        report = DuetAccelerator(stage="DUET").run(spec)
        assert 0.0 < report.mean_utilization <= 1.0

    def test_edp_positive(self):
        spec = get_model_spec("alexnet")
        report = DuetAccelerator(stage="DUET").run(spec)
        assert report.edp() > 0


class TestBatchRuns:
    def test_batch_reports_vary_with_seed(self):
        spec = get_model_spec("alexnet")
        reports = DuetAccelerator(stage="DUET").run_batch(spec, batch=3)
        assert len(reports) == 3
        cycles = {r.total_cycles for r in reports}
        assert len(cycles) > 1  # different maps, different latency

    def test_batch_deterministic_given_base_seed(self):
        spec = get_model_spec("alexnet")
        a = DuetAccelerator(stage="DUET").run_batch(spec, batch=2, base_seed=9)
        b = DuetAccelerator(stage="DUET").run_batch(spec, batch=2, base_seed=9)
        assert [r.total_cycles for r in a] == [r.total_cycles for r in b]

    def test_invalid_batch(self):
        spec = get_model_spec("alexnet")
        with pytest.raises(ValueError, match="batch"):
            DuetAccelerator(stage="DUET").run_batch(spec, batch=0)

    def test_batch_variation_is_small(self):
        """Per-image sparsity noise perturbs latency by a few percent, not
        qualitatively (the speedup claim is stable across images)."""
        spec = get_model_spec("alexnet")
        reports = DuetAccelerator(stage="DUET").run_batch(spec, batch=5)
        lats = np.array([r.latency_ms for r in reports])
        assert lats.std() / lats.mean() < 0.15

    def test_batch_forwards_reliability_context(self):
        """Regression: ``run_batch`` used to rebuild its per-sample
        accelerators without ``reliability``, silently dropping the fault
        campaign from every batched run.  The context must thread through
        the whole batch, accumulating state across samples."""
        from repro.reliability.context import ReliabilityContext

        spec = get_model_spec("lstm")
        context = ReliabilityContext(campaign="smoke", seed=5)
        reports = DuetAccelerator(stage="DUET", reliability=context).run_batch(
            spec, batch=2, base_seed=0
        )
        assert all(r.reliability is not None for r in reports)
        # one shared context: both samples' layers accumulated in it
        assert len(context.layers) == sum(len(r.layers) for r in reports)

    def test_batch_without_reliability_has_no_report(self):
        spec = get_model_spec("lstm")
        reports = DuetAccelerator(stage="DUET").run_batch(spec, batch=2)
        assert all(r.reliability is None for r in reports)
