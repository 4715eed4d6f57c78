"""Tests for the comparison accelerators (Fig. 11b)."""

import numpy as np
import pytest

from repro.baselines import (
    cnvlutin,
    eyeriss,
    predict,
    predict_cnvlutin,
    snapea,
)
from repro.baselines.base import BaselineCharacter
from repro.models import get_model_spec
from repro.sim import DuetAccelerator
from repro.sim.config import stage_config
from repro.workloads import cnn_workloads


@pytest.fixture(scope="module")
def setup():
    spec = get_model_spec("alexnet")
    wl = cnn_workloads(spec)
    duet = DuetAccelerator(stage="DUET").run(spec, workloads=wl)
    return spec, wl, duet


class TestCharacterValidation:
    def test_unknown_output_mode(self):
        with pytest.raises(ValueError, match="output_mode"):
            BaselineCharacter(name="x", output_mode="magic")

    def test_bad_early_term_fraction(self):
        with pytest.raises(ValueError, match="early_term"):
            BaselineCharacter(name="x", early_term_fraction=0.0)

    def test_bad_predict_overhead(self):
        with pytest.raises(ValueError, match="predict_overhead"):
            BaselineCharacter(name="x", predict_overhead=2.0)


class TestEyeriss:
    def test_dense_execution(self, setup):
        """Eyeriss computes every MAC: executed == dense."""
        spec, wl, _ = setup
        report = eyeriss().run(spec, wl)
        assert report.executed_macs == report.dense_macs

    def test_worst_latency_among_designs(self, setup):
        spec, wl, duet = setup
        designs = {
            "eyeriss": eyeriss(),
            "cnvlutin": cnvlutin(),
            "predict+cnv": predict_cnvlutin(),
        }
        cycles = {k: a.run(spec, wl).total_cycles for k, a in designs.items()}
        assert cycles["eyeriss"] >= max(cycles.values()) - 1
        assert cycles["eyeriss"] > duet.total_cycles

    def test_gating_saves_energy_not_cycles(self, setup):
        """Against a hypothetical no-gating dense design, Eyeriss has the
        same cycles but less compute energy."""
        spec, wl, _ = setup
        gated = eyeriss().run(spec, wl)
        from repro.baselines.base import BaselineCharacter, BaselineCnnAccelerator

        ungated = BaselineCnnAccelerator(
            BaselineCharacter(name="dense", input_gate=False, local_reuse=True)
        ).run(spec, wl)
        assert gated.total_cycles == ungated.total_cycles
        assert gated.energy.executor_compute < ungated.energy.executor_compute


class TestCnvlutin:
    def test_input_skipping_reduces_cycles(self, setup):
        spec, wl, _ = setup
        assert (
            cnvlutin().run(spec, wl).total_cycles
            < eyeriss().run(spec, wl).total_cycles
        )

    def test_executed_macs_track_input_density(self, setup):
        spec, wl, _ = setup
        report = cnvlutin().run(spec, wl)
        mean_density = np.mean(
            [w.input_density for w in wl]
        )
        ratio = report.executed_macs / report.dense_macs
        assert ratio == pytest.approx(mean_density, abs=0.2)

    def test_no_local_reuse_energy_penalty(self, setup):
        spec, wl, _ = setup
        report = cnvlutin().run(spec, wl)
        assert report.energy.executor_local == 0.0
        assert report.energy.glb > 0


class TestSnapeaAndPredict:
    def test_early_termination_cheaper_than_dense(self, setup):
        spec, wl, _ = setup
        assert (
            snapea().run(spec, wl).executed_macs
            < eyeriss().run(spec, wl).executed_macs
        )

    def test_snapea_still_pays_for_insensitive(self, setup):
        """Unlike DUET, early termination computes part of every negative
        output, so SnaPEA executes more than an oracle output-skipper."""
        spec, wl, duet = setup
        snapea_macs = snapea().run(spec, wl).executed_macs
        assert snapea_macs > duet.executed_macs

    def test_predict_overhead_on_every_output(self, setup):
        spec, wl, _ = setup
        report = predict().run(spec, wl)
        # at least overhead x dense MACs are executed
        overhead = 0.08 * report.dense_macs
        assert report.executed_macs > overhead

    def test_predict_cnvlutin_fastest_baseline(self, setup):
        spec, wl, _ = setup
        pc = predict_cnvlutin().run(spec, wl).total_cycles
        others = [
            eyeriss().run(spec, wl).total_cycles,
            snapea().run(spec, wl).total_cycles,
            predict().run(spec, wl).total_cycles,
        ]
        assert pc < min(others)


class TestPaperComparison:
    def test_duet_wins_latency(self, setup):
        spec, wl, duet = setup
        for acc in (eyeriss(), cnvlutin(), snapea(), predict(), predict_cnvlutin()):
            assert acc.run(spec, wl).total_cycles > duet.total_cycles

    def test_duet_wins_energy(self, setup):
        spec, wl, duet = setup
        for acc in (eyeriss(), cnvlutin(), snapea(), predict(), predict_cnvlutin()):
            assert acc.run(spec, wl).energy.total > duet.energy.total

    def test_energy_ratios_near_paper(self, setup):
        """Paper Section V-E: Cnvlutin 1.77x, SnaPEA 2.21x, Predict 2.21x,
        Predict+Cnvlutin 1.81x DUET's energy (we accept a band)."""
        spec, wl, duet = setup
        targets = {
            "cnvlutin": (cnvlutin(), 1.77),
            "snapea": (snapea(), 2.21),
            "predict": (predict(), 2.21),
            "predict+cnv": (predict_cnvlutin(), 1.81),
        }
        for name, (acc, target) in targets.items():
            ratio = acc.run(spec, wl).energy.total / duet.energy.total
            assert 0.55 * target < ratio < 1.7 * target, (name, ratio)

    def test_edp_ordering(self, setup):
        """SnaPEA's EDP exceeds Predict+Cnvlutin's (paper: 3.98x vs 2.03x)."""
        spec, wl, duet = setup
        edp_snapea = snapea().run(spec, wl).edp()
        edp_pc = predict_cnvlutin().run(spec, wl).edp()
        assert edp_snapea > edp_pc > duet.edp()


class TestSingleModule:
    """The single-module baseline is DUET's ``BASE`` stage."""

    def test_rnn_support(self):
        spec = get_model_spec("gru")
        report = DuetAccelerator(config=stage_config("BASE")).run(spec)
        assert report.total_cycles > 0
