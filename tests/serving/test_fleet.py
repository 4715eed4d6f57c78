"""Tests for the fleet tier (`repro.serving.fleet`).

Mechanism tests inject a stub sharded executor (fixed service time, no
accelerator simulation) so thousands of simulated requests run in
milliseconds; the campaign-level behaviour is covered by
``tests/serving/test_bench.py`` and ``tests/test_cli.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.fleet import (
    FALLBACK_CAPACITY_RPS,
    run_fleet_bench,
    serving_capacity_rps,
)

from repro.serving import (
    AdmissionConfig,
    AutoscalerPolicy,
    BatchPolicy,
    FleetConfig,
    ServerConfig,
    TraceConfig,
)
from repro.serving.loadgen import ClosedLoopConfig, generate_trace
from repro.serving.fleet import (
    DEFAULT_SLO_CLASSES,
    FleetSimulator,
    PriorityBatcher,
    SloClass,
    initial_fleet_size,
)
from repro.serving.request import Request
from repro.serving.server import ServingSimulator
from repro.sim.sharding import ShardedBatchResult

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

MS = 1_000_000  # cycles per simulated millisecond at the 1 GHz default


class StubShardedExecutor:
    """Fixed-service-time sharded executor: no accelerator simulation."""

    def __init__(self, service_cycles=2 * MS, shards=2):
        self.service_cycles = service_cycles
        self.shards = shards

    def execute(self, model, workload_seeds, stage=None):
        return ShardedBatchResult(
            reports=[None] * len(workload_seeds),
            service_cycles=self.service_cycles,
            shard_busy_cycles=[self.service_cycles] * self.shards,
        )


def uniform_trace(n, gap_cycles, model="lstm"):
    return [
        Request(rid=i, model=model, arrival_cycle=i * gap_cycles, workload_seed=0)
        for i in range(n)
    ]


def run_fleet(trace=None, closed_loop=None, config=None, **stub_kwargs):
    simulator = FleetSimulator(
        config=config, executor=StubShardedExecutor(**stub_kwargs)
    )
    return simulator.run(trace=trace, closed_loop=closed_loop)


class PricedStubExecutor:
    """Service time from (model, batch size, rung): no accelerator
    simulation, but every pricing input moves the schedule."""

    _BASE = {"alexnet": 3 * MS, "lstm": MS, "gru": 2 * MS}

    def execute(self, model, workload_seeds, stage=None):
        base = self._BASE[model]
        cycles = base + len(workload_seeds) * base // 4 + len(str(stage)) * 1000
        return ShardedBatchResult(
            reports=[None] * len(workload_seeds),
            service_cycles=cycles,
            shard_busy_cycles=[cycles],
        )


def fixed_fleet_and_plain(seed, workers, models, rate_rps, queue_depth):
    """The same bursty trace through a pinned, plan-free fleet and
    through the plain simulator with as many workers."""
    trace = generate_trace(
        TraceConfig(
            n_requests=120, rate_rps=rate_rps, arrival="bursty",
            models=models, seed=seed,
        )
    )
    batch = BatchPolicy(max_batch=4, max_wait_us=300.0)
    admission = AdmissionConfig(max_queue_depth=queue_depth)
    fleet = FleetSimulator(
        config=FleetConfig(
            batch=batch,
            admission=admission,
            autoscaler=AutoscalerPolicy.fixed(workers),
            initial_servers=workers,
        ),
        executor=PricedStubExecutor(),
    ).run(trace=trace)
    plain = ServingSimulator(
        config=ServerConfig(workers=workers, batch=batch, admission=admission),
        executor=PricedStubExecutor(),
    ).run(trace)
    return fleet, plain


class TestFixedFleetMatchesPlainServing:
    """A fleet pinned at N plan-free servers is N plain workers."""

    def test_overloaded_trace_with_rejects(self):
        fleet, plain = fixed_fleet_and_plain(
            seed=3, workers=1, models=("alexnet", "lstm"),
            rate_rps=3000.0, queue_depth=6,
        )
        assert plain.summary.rejected > 0
        assert fleet.records == plain.records
        assert fleet.max_queue_depth == plain.max_queue_depth


if HAVE_HYPOTHESIS:

    class TestFixedFleetOracleProperty:
        @settings(max_examples=30, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=10_000),
            workers=st.sampled_from((1, 3)),
            models=st.sampled_from(
                (("lstm",), ("alexnet", "lstm"), ("alexnet", "gru", "lstm"))
            ),
            rate_rps=st.sampled_from((300.0, 1500.0, 6000.0)),
            queue_depth=st.integers(min_value=2, max_value=16),
        )
        def test_every_record_field_matches(
            self, seed, workers, models, rate_rps, queue_depth
        ):
            fleet, plain = fixed_fleet_and_plain(
                seed, workers, models, rate_rps, queue_depth
            )
            assert len(fleet.records) == len(plain.records)
            for a, b in zip(fleet.records, plain.records):
                assert a == b


class TestSloClass:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", target_ms=1.0),
            dict(name="x", target_ms=0.0),
            dict(name="x", target_ms=1.0, priority=-1),
        ],
    )
    def test_rejects_bad_classes(self, kwargs):
        with pytest.raises(ValueError):
            SloClass(**kwargs)

    def test_unmapped_model_falls_into_last_class(self):
        config = FleetConfig(model_classes={"alexnet": "interactive"})
        assert config.slo_class_for("alexnet").name == "interactive"
        assert config.slo_class_for("lstm").name == DEFAULT_SLO_CLASSES[-1].name

    def test_unknown_class_mapping_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO class"):
            FleetConfig(model_classes={"alexnet": "platinum"})


class TestAutoscalerPolicy:
    def test_fixed_pins_the_fleet(self):
        policy = AutoscalerPolicy.fixed(3)
        assert (policy.min_servers, policy.max_servers) == (3, 3)
        assert not policy.enabled

    def test_default_can_scale(self):
        assert AutoscalerPolicy().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_servers=0),
            dict(min_servers=3, max_servers=2),
            dict(scale_out_occupancy=0.0),
            dict(scale_in_occupancy=0.6, scale_out_occupancy=0.5),
            dict(eval_interval_us=0.0),
            dict(cooldown_evals=-1),
            dict(startup_us=-1.0),
        ],
    )
    def test_rejects_bad_policies(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerPolicy(**kwargs)


class TestInitialFleetSize:
    def test_covers_the_offered_rate(self):
        policy = AutoscalerPolicy(min_servers=1, max_servers=8)
        assert initial_fleet_size(900.0, 450.0, policy) == 2
        assert initial_fleet_size(901.0, 450.0, policy) == 3

    def test_clamped_to_policy_bounds(self):
        policy = AutoscalerPolicy(min_servers=2, max_servers=4)
        assert initial_fleet_size(1.0, 450.0, policy) == 2
        assert initial_fleet_size(1e6, 450.0, policy) == 4

    @pytest.mark.parametrize("rate, capacity", [(0.0, 450.0), (450.0, 0.0)])
    def test_rejects_bad_rates(self, rate, capacity):
        with pytest.raises(ValueError):
            initial_fleet_size(rate, capacity, AutoscalerPolicy())


class TestPriorityBatcher:
    def test_priority_beats_arrival_order(self):
        batcher = PriorityBatcher(
            BatchPolicy(max_batch=4, max_wait_us=0.0),
            priorities={"bulk": 1, "hot": 0},
        )
        batcher.push(Request(0, "bulk", arrival_cycle=0, workload_seed=0))
        batcher.push(Request(1, "hot", arrival_cycle=5, workload_seed=0))
        batch = batcher.pop_batch(now_cycle=10)
        assert [r.model for r in batch] == ["hot"]

    def test_unmapped_models_rank_last(self):
        batcher = PriorityBatcher(
            BatchPolicy(max_batch=4, max_wait_us=0.0), priorities={"hot": 0}
        )
        batcher.push(Request(0, "mystery", arrival_cycle=0, workload_seed=0))
        batcher.push(Request(1, "hot", arrival_cycle=5, workload_seed=0))
        assert [r.model for r in batcher.pop_batch(10)] == ["hot"]


class TestFleetSimulation:
    def test_requires_exactly_one_workload(self):
        simulator = FleetSimulator(executor=StubShardedExecutor())
        with pytest.raises(ValueError, match="exactly one"):
            simulator.run()
        with pytest.raises(ValueError, match="exactly one"):
            simulator.run(
                trace=uniform_trace(1, MS), closed_loop=ClosedLoopConfig()
            )

    def test_priority_class_dispatches_first(self):
        # both queues flush at the same cycle; the interactive model
        # must dispatch ahead of the earlier-pushed bulk traffic
        config = FleetConfig(
            model_classes={"alexnet": "interactive", "lstm": "bulk"},
            batch=BatchPolicy(max_batch=4, max_wait_us=10_000.0),
            autoscaler=AutoscalerPolicy.fixed(1),
        )
        trace = [
            Request(0, "lstm", arrival_cycle=0, workload_seed=0),
            Request(1, "alexnet", arrival_cycle=0, workload_seed=0),
        ]
        result = run_fleet(trace=trace, config=config)
        hot, bulk = result.records[1], result.records[0]
        assert hot.completed and bulk.completed
        assert hot.dispatch_cycle < bulk.dispatch_cycle

    def test_queue_bound_rejects_overflow(self):
        config = FleetConfig(
            admission=AdmissionConfig(max_queue_depth=4),
            autoscaler=AutoscalerPolicy.fixed(1),
        )
        result = run_fleet(
            trace=uniform_trace(40, gap_cycles=1), config=config,
            service_cycles=20 * MS,
        )
        assert result.summary.rejected > 0
        assert result.max_queue_depth <= 4
        assert result.summary.offered == 40

    def test_overload_scales_out_and_idleness_scales_in(self):
        config = FleetConfig(
            admission=AdmissionConfig(max_queue_depth=64),
            batch=BatchPolicy(max_batch=1),
            autoscaler=AutoscalerPolicy(
                min_servers=1,
                max_servers=3,
                eval_interval_us=100.0,
                cooldown_evals=0,
                startup_us=100.0,
            ),
        )
        # 60 near-simultaneous arrivals against one slow server: the
        # queue backs up past the scale-out threshold, then drains once
        # the pool has grown
        result = run_fleet(
            trace=uniform_trace(60, gap_cycles=1000), config=config,
            service_cycles=1 * MS,
        )
        actions = [event["action"] for event in result.scale_events]
        assert "scale_out" in actions
        assert "scale_in" in actions
        assert result.peak_servers == 3
        # the fleet ends back at its floor: retired servers stay retired
        assert actions.count("scale_out") == actions.count("scale_in")
        assert result.summary.completed == 60
        assert result.summary.rejected == 0

    def test_fixed_policy_never_scales(self):
        config = FleetConfig(autoscaler=AutoscalerPolicy.fixed(2))
        result = run_fleet(
            trace=uniform_trace(30, gap_cycles=1000), config=config
        )
        assert result.scale_events == []
        assert result.peak_servers == 2

    def test_closed_loop_conserves_requests(self):
        population = ClosedLoopConfig(
            clients=6, requests_per_client=10, think_time_us=500.0
        )
        result = run_fleet(closed_loop=population)
        assert result.summary.offered == 60
        assert result.summary.completed + result.summary.rejected == 60

    def test_client_streams_are_seed_sequence_children(self):
        """Client i draws from default_rng(SeedSequence(seed).spawn(clients)[i]):
        after a run, each client's generator sits exactly where that stream
        lands after its requests' think and request draws."""
        population = ClosedLoopConfig(
            clients=4, requests_per_client=3, think_time_us=500.0, seed=11
        )
        simulator = FleetSimulator(executor=StubShardedExecutor())
        simulator.run(closed_loop=population)
        children = np.random.SeedSequence(11).spawn(4)
        for (rng, remaining), child in zip(simulator._clients, children):
            expected = np.random.default_rng(child)
            for _ in range(3):
                population.think_cycles(expected)
                population.draw_request(expected)
            assert remaining == 0
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_deterministic_across_runs(self):
        population = ClosedLoopConfig(clients=5, requests_per_client=8, seed=3)
        first = run_fleet(closed_loop=population)
        second = run_fleet(closed_loop=population)
        assert first.records == second.records
        assert first.scale_events == second.scale_events
        assert first.server_stats == second.server_stats
        assert first.goodput_rps == second.goodput_rps

    def test_server_stats_track_shard_busy(self):
        result = run_fleet(
            trace=uniform_trace(10, gap_cycles=3 * MS), shards=3
        )
        worked = [s for s in result.server_stats if s["shard_busy_cycles"]]
        assert worked
        assert all(len(s["shard_busy_cycles"]) == 3 for s in worked)
        assert 0.0 < result.shard_utilization <= 1.0

    def test_run_accepts_closed_loop_workload(self):
        result = FleetSimulator(executor=StubShardedExecutor()).run(
            closed_loop=ClosedLoopConfig(clients=2, requests_per_client=2)
        )
        assert result.summary.offered == 4


class TestFleetBenchCampaign:
    def test_smoke_document_verdicts_and_shape(self):
        document = run_fleet_bench(
            smoke=True, root_seed=0, jobs=1, output=None, with_perf=False
        )
        assert document["schema"] == "duet-fleet/1"
        assert document["verdicts"]["goodput_dominance"]
        assert document["verdicts"]["autoscale_out_observed"]
        assert document["verdicts"]["closed_loop_conserved"]
        assert [s["name"] for s in document["scenarios"]] == [
            "single_chip",
            "sharded_fleet",
            "overload_autoscale",
            "closed_loop",
        ]
        assert document["dominance"]["speedup"] >= 1.0
        assert document["capacity_feed"]["server_capacity_rps"] > 0

    def test_jobs_do_not_change_the_document(self):
        kwargs = dict(smoke=True, root_seed=0, output=None, with_perf=False)
        serial = run_fleet_bench(jobs=1, **kwargs)
        sharded = run_fleet_bench(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )

    def test_capacity_feed_reads_the_committed_bench(self):
        capacity, source = serving_capacity_rps("BENCH_serving.json")
        assert source == "BENCH_serving.json"
        assert capacity > 0

    def test_capacity_feed_falls_back_when_absent(self, tmp_path):
        capacity, source = serving_capacity_rps(str(tmp_path / "missing.json"))
        assert source == "fallback"
        assert capacity > 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batched_throughput_rps", "fast"),
            ("workers", True),
            ("batched_throughput_rps", float("inf")),
        ],
    )
    def test_capacity_feed_falls_back_on_unusable_values(self, tmp_path, field, value):
        """A schema-valid document whose capacity inputs are not finite
        positive numbers falls back instead of crashing the campaign."""
        document = json.loads(Path("BENCH_serving.json").read_text())
        if field == "workers":
            document["workers"] = value
        else:
            document["batching"][field] = value
        path = tmp_path / "BENCH_serving.json"
        path.write_text(json.dumps(document))
        assert serving_capacity_rps(str(path)) == (FALLBACK_CAPACITY_RPS, "fallback")
