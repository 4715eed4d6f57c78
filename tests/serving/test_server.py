"""Tests for the serving simulator: invariants, determinism, batching.

Policy-level tests inject a stub executor so no accelerator simulation
runs; the end-to-end tests use real (memory-bound, cheap-to-simulate)
LSTM traffic on both simulator paths.
"""

import json

import pytest

from repro.serving import (
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    TraceConfig,
    simulate_serving,
)
from repro.sim.batching import BatchExecutor, BatchResult, WorkerPool
from repro.serving.overload import OverloadPolicy
from repro.serving.request import Request
from repro.serving.server import ServingSimulator
from repro.sim.config import DuetConfig

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False


class StubExecutor:
    """Fixed-service-time executor: no accelerator simulation."""

    def __init__(self, service_cycles=2_000_000):
        self.service_cycles = service_cycles
        self.batches = []

    def execute(self, model, workload_seeds, stage=None):
        self.batches.append((model, tuple(workload_seeds), stage))
        return BatchResult(
            reports=[None] * len(workload_seeds),
            service_cycles=self.service_cycles,
        )


def uniform_trace(n, gap_cycles, model="lstm"):
    return [
        Request(rid=i, model=model, arrival_cycle=i * gap_cycles, workload_seed=0)
        for i in range(n)
    ]


class TestWorkerPool:
    def test_acquire_release_cycle(self):
        pool = WorkerPool(2)
        assert pool.idle == 2
        assert pool.acquire() == 0
        assert pool.acquire() == 1
        with pytest.raises(RuntimeError):
            pool.acquire()
        pool.release(0)
        assert pool.acquire() == 0

    def test_release_guards(self):
        pool = WorkerPool(1)
        with pytest.raises(ValueError):
            pool.release(5)
        with pytest.raises(ValueError):
            pool.release(0)  # already idle


class TestAccounting:
    def test_every_request_closed_exactly_once(self):
        trace = uniform_trace(40, gap_cycles=100_000)
        result = simulate_serving(
            trace,
            config=ServerConfig(workers=1, admission=AdmissionConfig(max_queue_depth=4)),
            executor=StubExecutor(),
        )
        assert len(result.records) == 40
        assert [r.request.rid for r in result.records] == list(range(40))
        assert result.summary.completed + result.summary.rejected == 40
        assert result.summary.rejected > 0  # 1 slow worker, deep overload

    def test_timestamps_are_causal(self):
        trace = uniform_trace(20, gap_cycles=500_000)
        result = simulate_serving(trace, executor=StubExecutor())
        for record in result.records:
            assert record.completed
            assert record.dispatch_cycle >= record.request.arrival_cycle
            assert record.completion_cycle > record.dispatch_cycle
            assert record.latency_cycles >= record.queue_cycles

    def test_second_close_of_a_rid_is_a_counted_duplicate(self):
        """Closing one rid twice counts one duplicate; the first record
        stands."""
        from repro.serving.request import COMPLETED, REJECTED, RequestRecord

        simulator = ServingSimulator(executor=StubExecutor())
        simulator._start()
        request = uniform_trace(1, gap_cycles=1)[0]
        first = RequestRecord(request, COMPLETED, stage="DUET", batch_size=1)
        simulator._close(first)
        simulator._close(RequestRecord(request, REJECTED, reject_reason="x"))
        assert simulator._duplicates == 1
        assert simulator._records == {request.rid: first}

    def test_queue_bound_never_violated(self):
        config = ServerConfig(
            workers=1, admission=AdmissionConfig(max_queue_depth=6)
        )
        trace = uniform_trace(200, gap_cycles=10_000)
        result = simulate_serving(trace, config=config, executor=StubExecutor())
        assert 0 < result.max_queue_depth <= 6


class TestBatchingBehaviour:
    def test_max_wait_bounds_queueing_delay(self):
        # one request, idle server: the flush timer must dispatch it at
        # its max-wait deadline, never strand it
        config = ServerConfig(
            workers=1, batch=BatchPolicy(max_batch=8, max_wait_us=100.0)
        )
        trace = uniform_trace(1, gap_cycles=0)
        result = simulate_serving(trace, config=config, executor=StubExecutor())
        record = result.records[0]
        assert record.completed
        assert record.queue_cycles == pytest.approx(100_000, abs=1)

    def test_backlog_dispatches_full_batches(self):
        # all arrivals land before the first service completes
        config = ServerConfig(workers=1, batch=BatchPolicy(max_batch=4))
        trace = uniform_trace(16, gap_cycles=1_000)
        stub = StubExecutor(service_cycles=10_000_000)
        simulate_serving(trace, config=config, executor=stub)
        assert [len(seeds) for _, seeds, _ in stub.batches[1:]] == [4, 4, 4]

    def test_batches_never_mix_models(self):
        config = ServerConfig(workers=1, batch=BatchPolicy(max_batch=8))
        trace = [
            Request(
                rid=i,
                model="lstm" if i % 2 else "alexnet",
                arrival_cycle=i * 1_000,
                workload_seed=i,
            )
            for i in range(12)
        ]
        stub = StubExecutor(service_cycles=5_000_000)
        result = simulate_serving(trace, config=config, executor=stub)
        assert all(r.completed for r in result.records)
        assert len(stub.batches) >= 2  # one model per dispatch


class TestDegradationUnderLoad:
    def run_at_gap(self, gap):
        config = ServerConfig(
            workers=1, admission=AdmissionConfig(max_queue_depth=64)
        )
        return simulate_serving(
            uniform_trace(120, gap_cycles=gap),
            config=config,
            executor=StubExecutor(),
        ).summary

    def test_degradation_monotone_in_load(self):
        """Within the queue bound, rising load monotonically pushes
        service down the ladder: a faster arrival process never yields a
        lower degrade rate.  (The loads stay inside the bound on purpose:
        once admission control sheds arrivals, completed-request rates
        stop being comparable across loads.)"""
        # stub service = 2 ms per batch-of-8 on 1 worker; gaps sit well
        # inside capacity, ~1.4x beyond, and ~1.9x beyond
        summaries = {
            name: self.run_at_gap(gap)
            for name, gap in
            {"light": 4_000_000, "medium": 180_000, "heavy": 140_000}.items()
        }
        assert all(s.rejected == 0 for s in summaries.values())
        degrade = {name: s.degrade_rate for name, s in summaries.items()}
        assert degrade["light"] <= degrade["medium"] <= degrade["heavy"]
        assert degrade["light"] == 0.0
        assert degrade["heavy"] > degrade["medium"] > 0.0

    def test_disabled_policy_never_degrades(self):
        config = ServerConfig(
            workers=1,
            admission=AdmissionConfig(max_queue_depth=32),
            overload=OverloadPolicy.disabled(),
        )
        result = simulate_serving(
            uniform_trace(120, gap_cycles=10_000),
            config=config,
            executor=StubExecutor(),
        )
        assert result.summary.degraded == 0


class TestDeterminism:
    def config(self, fast_path=True):
        return ServerConfig(
            workers=2,
            batch=BatchPolicy(max_batch=4, max_wait_us=100.0),
            admission=AdmissionConfig(max_queue_depth=16),
            hardware=DuetConfig(fast_path=fast_path),
        )

    def trace(self):
        # memory-bound LSTM only: cheap on both simulator paths
        return TraceConfig(
            n_requests=60,
            rate_rps=2_000.0,
            models=("lstm",),
            workload_variants=3,
            seed=42,
        )

    def summary_json(self, fast_path):
        result = simulate_serving(self.trace(), config=self.config(fast_path))
        return json.dumps(result.summary.as_dict(), sort_keys=True)

    def test_same_seed_byte_identical(self):
        assert self.summary_json(True) == self.summary_json(True)

    def test_fast_path_matches_slow_path_oracle(self):
        assert self.summary_json(True) == self.summary_json(False)

    def test_executor_memoizes_repeat_seeds(self):
        executor = BatchExecutor(config=DuetConfig())
        first = executor.execute("lstm", [0, 1, 0])
        again = executor.execute("lstm", [0])
        assert first.reports[0] is first.reports[2]
        assert again.reports[0] is first.reports[0]


if HAVE_HYPOTHESIS:

    class TestQueueBoundProperty:
        @settings(max_examples=40, deadline=None)
        @given(
            bound=st.integers(min_value=1, max_value=12),
            workers=st.integers(min_value=1, max_value=3),
            max_batch=st.integers(min_value=1, max_value=6),
            service=st.integers(min_value=1_000, max_value=5_000_000),
            gaps=st.lists(
                st.integers(min_value=0, max_value=200_000),
                min_size=1,
                max_size=80,
            ),
        )
        def test_admission_enforces_queue_bound(
            self, bound, workers, max_batch, service, gaps
        ):
            """Whatever the arrival pattern, the pending queue never
            exceeds the configured bound and every request is closed."""
            arrivals, now = [], 0
            for gap in gaps:
                now += gap
                arrivals.append(now)
            trace = [
                Request(rid=i, model="lstm", arrival_cycle=a, workload_seed=0)
                for i, a in enumerate(arrivals)
            ]
            config = ServerConfig(
                workers=workers,
                batch=BatchPolicy(max_batch=max_batch, max_wait_us=50.0),
                admission=AdmissionConfig(max_queue_depth=bound),
            )
            result = simulate_serving(
                trace, config=config, executor=StubExecutor(service)
            )
            assert result.max_queue_depth <= bound
            assert len(result.records) == len(trace)
            assert all(
                r.completed or r.reject_reason is not None
                for r in result.records
            )
