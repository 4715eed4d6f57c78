"""Tests for the discrete-event pipeline validator."""

import pytest

from repro.models import get_model_spec
from repro.models.registry import MODEL_REGISTRY
from repro.sim import DuetAccelerator
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.sim.event import EventSimulator, Job, simulate_cnn_events
from repro.workloads import cnn_workloads


_ZOO_CNNS = [
    name for name in MODEL_REGISTRY if get_model_spec(name).domain == "cnn"
]


class TestEventSimulator:
    def test_serial_resource(self):
        sim = EventSimulator()
        sim.add(Job("a", "r", 10))
        sim.add(Job("b", "r", 5))
        schedule = sim.run()
        assert schedule.start("b") == 10  # same resource serialises
        assert schedule.makespan == 15

    def test_parallel_resources(self):
        sim = EventSimulator()
        sim.add(Job("a", "r1", 10))
        sim.add(Job("b", "r2", 7))
        schedule = sim.run()
        assert schedule.start("b") == 0
        assert schedule.makespan == 10

    def test_end_dependency(self):
        sim = EventSimulator()
        sim.add(Job("a", "r1", 10))
        sim.add(Job("b", "r2", 3, after_end_of=["a"]))
        schedule = sim.run()
        assert schedule.start("b") == 10

    def test_start_dependency_allows_overlap(self):
        sim = EventSimulator()
        sim.add(Job("a", "r1", 10))
        sim.add(Job("b", "r2", 3, after_start_of=["a"]))
        schedule = sim.run()
        assert schedule.start("b") == 0  # starts with a, not after it

    def test_end_floor_models_streaming(self):
        """A fast consumer cannot finish before its producer's last tile."""
        sim = EventSimulator()
        sim.add(Job("producer", "r1", 10))
        sim.add(
            Job(
                "consumer",
                "r2",
                2,
                after_start_of=["producer"],
                ends_no_earlier_than=["producer"],
            )
        )
        schedule = sim.run()
        assert schedule.end("consumer") == 10

    def test_duplicate_name(self):
        sim = EventSimulator()
        sim.add(Job("a", "r", 1))
        with pytest.raises(ValueError, match="duplicate"):
            sim.add(Job("a", "r", 1))

    def test_unknown_dependency(self):
        sim = EventSimulator()
        with pytest.raises(ValueError, match="unknown job"):
            sim.add(Job("a", "r", 1, after_end_of=["ghost"]))

    def test_negative_duration(self):
        sim = EventSimulator()
        with pytest.raises(ValueError, match="negative"):
            sim.add(Job("a", "r", -1))


class TestPipelineValidation:
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("model_name", _ZOO_CNNS)
    def test_event_schedule_matches_analytical_model(self, model_name, stage):
        """The analytical per-layer max() model and the event engine agree
        on end-to-end latency within 15% for every zoo CNN at every
        evaluation stage."""
        spec = get_model_spec(model_name)
        wl = cnn_workloads(spec)
        cfg = stage_config(stage)
        analytical = DuetAccelerator(config=cfg).run(spec, workloads=wl)
        event = simulate_cnn_events(spec, wl, cfg)
        ratio = event.makespan / analytical.total_cycles
        assert 0.85 < ratio < 1.15, ratio

    def test_speculation_mostly_hidden_in_schedule(self):
        """In the solved schedule, speculation jobs overlap execution."""
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        schedule = simulate_cnn_events(spec, wl, stage_config("DUET"))
        for i in range(1, len(wl)):
            spec_end = schedule.end(f"spec[{i}]")
            exec_prev_end = schedule.end(f"exec[{i - 1}]")
            # speculation finishes within a small margin of the producing
            # layer's execution (hidden), never long after
            assert spec_end <= exec_prev_end * 1.3 + 10_000

    def test_event_duet_faster_than_event_base(self):
        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        duet = simulate_cnn_events(spec, wl, stage_config("DUET"))
        base = simulate_cnn_events(spec, wl, stage_config("BASE"))
        assert duet.makespan < base.makespan
