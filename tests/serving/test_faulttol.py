"""Tests for the fault-tolerant serving tier.

Mechanism tests inject a stub executor (no accelerator simulation) and
craft fault models that force one recovery path at a time; the
campaign-level tests run the real chaos bench at smoke scale.
"""

import json
from dataclasses import replace

import pytest

from repro.bench.chaos import chaos_policy, run_chaos_bench
from repro.reliability.workerfaults import WorkerFaultModel
from repro.serving import (
    BatchResult,
    BreakerPolicy,
    FaultTolerancePolicy,
    FaultTolerantSimulator,
    HealthPolicy,
    HedgePolicy,
    POLICY_LADDER,
    Request,
    RetryPolicy,
    ServerConfig,
    AdmissionConfig,
    ServingSimulator,
    policy_named,
)

try:
    from hypothesis import example, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

MS = 1_000_000  # cycles per simulated millisecond at the 1 GHz default


class StubExecutor:
    """Fixed-service-time executor: no accelerator simulation."""

    def __init__(self, service_cycles=2 * MS):
        self.service_cycles = service_cycles

    def execute(self, model, workload_seeds, stage=None):
        return BatchResult(
            reports=[None] * len(workload_seeds),
            service_cycles=self.service_cycles,
        )


def uniform_trace(n, gap_cycles, model="lstm"):
    return [
        Request(rid=i, model=model, arrival_cycle=i * gap_cycles, workload_seed=0)
        for i in range(n)
    ]


def run_chaos(
    trace,
    faults,
    policy,
    seed=0,
    workers=3,
    service_cycles=2 * MS,
    admission=None,
):
    config = ServerConfig(workers=workers, admission=admission or AdmissionConfig())
    simulator = FaultTolerantSimulator(
        config=config,
        faults=faults,
        policy=policy,
        seed=seed,
        executor=StubExecutor(service_cycles),
    )
    return simulator.run(trace)


def assert_conserved(result):
    s = result.summary
    assert s.completed + s.failed + s.rejected == s.offered
    assert s.lost == 0
    assert s.duplicates == 0


class TestPolicyLadder:
    def test_policy_named_rungs(self):
        none = policy_named("none")
        assert none.retry is None and none.health is None
        retry = policy_named("retry")
        assert retry.retry is not None and retry.hedge is None
        hedge = policy_named("retry-hedge")
        assert hedge.hedge is not None and hedge.breaker is None
        full = policy_named("retry-hedge-breaker")
        assert full.breaker is not None and full.health is not None
        with pytest.raises(ValueError):
            policy_named("bogus")

    def test_unknown_rung_is_rejected_by_name(self):
        message = r"unknown fault-tolerance policy 'bogus'; choose from"
        with pytest.raises(ValueError, match=message):
            policy_named("bogus")
        with pytest.raises(ValueError, match=message):
            chaos_policy("bogus")

    def test_rungs_keep_the_template_deadline(self):
        template = replace(policy_named("retry-hedge-breaker"), deadline_us=9e6)
        for name in POLICY_LADDER:
            assert policy_named(name, template).deadline_us == 9e6

    def test_chaos_policy_rungs(self):
        """The bench's tuned rungs, pinned knob for knob."""
        retry = RetryPolicy(
            max_attempts=4, timeout_us=120_000.0, backoff_base_us=5_000.0
        )
        hedge = HedgePolicy(
            initial_delay_us=60_000.0, latency_percentile=95.0, min_samples=20
        )
        breaker = BreakerPolicy(failure_threshold=3, reset_timeout_us=300_000.0)
        health = HealthPolicy(heartbeat_us=100_000.0, miss_threshold=3)
        assert [chaos_policy(name) for name in POLICY_LADDER] == [
            FaultTolerancePolicy(name="none"),
            FaultTolerancePolicy(name="retry", retry=retry, health=health),
            FaultTolerancePolicy(
                name="retry-hedge", retry=retry, hedge=hedge, health=health
            ),
            FaultTolerancePolicy(
                name="retry-hedge-breaker",
                retry=retry,
                hedge=hedge,
                breaker=breaker,
                health=health,
            ),
        ]

    def test_breaker_requires_retry(self):
        with pytest.raises(ValueError):
            FaultTolerancePolicy(name="x", breaker=BreakerPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            HedgePolicy(latency_percentile=120.0)
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            HealthPolicy(miss_threshold=0)
        with pytest.raises(ValueError):  # deadline must exceed the timeout
            FaultTolerancePolicy(
                name="x",
                retry=RetryPolicy(timeout_us=100.0),
                deadline_us=50.0,
            )


class TestParityWithPlainSimulator:
    def test_zero_faults_none_policy_reproduces_plain_records(self):
        trace = uniform_trace(60, gap_cycles=3 * MS)
        config = ServerConfig(workers=2)
        plain = ServingSimulator(config=config, executor=StubExecutor()).run(trace)
        chaos = FaultTolerantSimulator(
            config=config,
            faults=WorkerFaultModel(),
            policy=policy_named("none"),
            seed=0,
            executor=StubExecutor(),
        ).run(trace)
        assert len(plain.records) == len(chaos.records)
        for a, b in zip(plain.records, chaos.records):
            # the plain simulator never counts attempts; every other
            # field must agree
            assert replace(a, attempts=b.attempts) == b


class TestRecoveryMechanisms:
    def test_hang_recovers_via_timeout_and_retry(self):
        # all workers hang sometimes; health detection (3 x 100 ms) is
        # slower than the 20 ms attempt timeout, so recovery must flow
        # through timeout -> backoff -> retry on another worker
        policy = FaultTolerancePolicy(
            name="retry",
            retry=RetryPolicy(max_attempts=4, timeout_us=20_000.0),
            health=HealthPolicy(heartbeat_us=100_000.0, miss_threshold=3),
        )
        result = run_chaos(
            uniform_trace(40, gap_cycles=3 * MS),
            WorkerFaultModel(hang_rate=0.3),
            policy,
            seed=1,
        )
        assert_conserved(result)
        assert result.summary.timeouts > 0
        assert result.summary.retries > 0
        assert result.summary.completed == result.summary.offered
        for record in result.records:
            assert record.attempts <= 4

    def test_attempts_exhausted_is_terminal(self):
        # a single worker that always hangs: every attempt times out and
        # the retry budget runs dry with a terminal 503-style failure
        policy = FaultTolerancePolicy(
            name="retry",
            retry=RetryPolicy(max_attempts=2, timeout_us=20_000.0),
            health=HealthPolicy(heartbeat_us=200_000.0, miss_threshold=5),
        )
        result = run_chaos(
            uniform_trace(4, gap_cycles=1 * MS),
            WorkerFaultModel(hang_rate=0.97),
            policy,
            seed=0,
            workers=1,
        )
        assert_conserved(result)
        assert result.summary.failed > 0
        assert "attempts-exhausted" in result.summary.fails_by_reason

    def test_health_checker_evicts_and_respawns(self):
        # hangs with *no* retry timeout racing it: the heartbeat misses
        # must evict the wedged worker, hand its batch back to the
        # queue front, and warm-restart the slot
        policy = FaultTolerancePolicy(
            name="retry",
            retry=RetryPolicy(max_attempts=6, timeout_us=500_000.0),
            health=HealthPolicy(heartbeat_us=10_000.0, miss_threshold=2),
        )
        result = run_chaos(
            uniform_trace(40, gap_cycles=3 * MS),
            WorkerFaultModel(hang_rate=0.3),
            policy,
            seed=1,
        )
        assert_conserved(result)
        s = result.summary
        assert s.evictions > 0
        assert s.handed_back > 0
        assert s.respawns_warm + s.respawns_cold == s.evictions
        assert s.completed == s.offered

    def test_hedge_races_stragglers(self):
        # stragglers run 10x the 2 ms stub service; the hedge fires at
        # 5 ms onto an idle worker and wins long before the original
        policy = FaultTolerancePolicy(
            name="retry-hedge",
            retry=RetryPolicy(max_attempts=3, timeout_us=100_000.0),
            hedge=HedgePolicy(initial_delay_us=5_000.0, min_samples=10_000),
            health=HealthPolicy(),
        )
        result = run_chaos(
            uniform_trace(40, gap_cycles=3 * MS),
            WorkerFaultModel(straggle_rate=0.4, straggle_multiplier=10.0),
            policy,
            seed=0,
        )
        assert_conserved(result)
        assert result.summary.hedges > 0
        assert result.summary.hedge_wins > 0
        assert result.summary.completed == result.summary.offered

    def test_breaker_opens_on_consecutive_timeouts_and_reprobes(self):
        # one worker, always straggling past the timeout: consecutive
        # breaker failures must open the circuit, then a half-open
        # probe must eventually test the slot again
        policy = FaultTolerancePolicy(
            name="retry-hedge-breaker",
            retry=RetryPolicy(max_attempts=6, timeout_us=10_000.0),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout_us=50_000.0),
            health=HealthPolicy(heartbeat_us=200_000.0, miss_threshold=5),
            deadline_us=4_000_000.0,
        )
        result = run_chaos(
            uniform_trace(12, gap_cycles=20 * MS),
            WorkerFaultModel(straggle_rate=0.9, straggle_multiplier=20.0),
            policy,
            seed=3,
            workers=1,
        )
        assert_conserved(result)
        assert result.summary.breaker_opens > 0
        assert result.summary.breaker_probes > 0

    def test_retries_do_not_starve_the_admission_bucket(self):
        # arrivals exactly match the token-bucket refill rate with no
        # headroom: if retries consumed admission tokens, later
        # arrivals would be rate-limited.  They never are.
        policy = FaultTolerancePolicy(
            name="retry",
            retry=RetryPolicy(max_attempts=5, timeout_us=20_000.0),
            health=HealthPolicy(),
        )
        result = run_chaos(
            uniform_trace(40, gap_cycles=10 * MS),  # 100 req/s
            WorkerFaultModel(hang_rate=0.3),
            policy,
            seed=4,
            admission=AdmissionConfig(
                max_queue_depth=64, rate_limit_rps=100.0, burst=1
            ),
        )
        assert_conserved(result)
        assert result.summary.retries > 0
        assert result.summary.rejects_by_reason.get("rate-limited", 0) == 0

    def test_deadline_backstops_the_mechanism_free_policy(self):
        # under "none" a crashed worker's batch has no retry machinery;
        # the per-request deadline must still terminally fail it
        result = run_chaos(
            uniform_trace(30, gap_cycles=2 * MS),
            WorkerFaultModel(crash_rate=0.4),
            policy_named("none"),
            seed=5,
            workers=2,
        )
        assert_conserved(result)
        assert result.summary.failed > 0
        assert result.summary.fails_by_reason == {
            "deadline": result.summary.failed
        }


class TestChaosSummary:
    def test_as_dict_follows_the_committed_key_order(self):
        result = run_chaos(
            uniform_trace(20, gap_cycles=2 * MS),
            WorkerFaultModel(crash_rate=0.2, hang_rate=0.1, straggle_rate=0.1),
            policy_named("retry-hedge-breaker"),
            seed=3,
            workers=2,
        )
        as_dict = result.summary.as_dict()
        assert list(as_dict) == [
            "offered", "admitted", "completed", "rejected", "failed",
            "rejects_by_reason", "fails_by_reason", "duration_ms",
            "goodput_rps", "success_rate", "latency_ms", "dispatches",
            "retries", "hedges", "hedge_wins", "hedges_skipped", "timeouts",
            "late_completions", "redundant", "faults", "evictions",
            "respawns_warm", "respawns_cold", "handed_back", "breaker_opens",
            "breaker_probes", "duplicates", "lost", "stage_counts",
            "early_exits", "mean_exit_depth", "mean_quality_drop",
        ]
        assert list(as_dict["faults"]) == ["crashes", "hangs", "straggles"]


class TestChaosBenchCampaign:
    def test_smoke_document_verdicts_and_shape(self):
        document = run_chaos_bench(
            smoke=True, root_seed=0, jobs=1, output=None, with_perf=False
        )
        assert document["schema"] == "duet-chaos/1"
        assert document["verdicts"]["zero_lost"]
        assert document["verdicts"]["zero_duplicates"]
        assert document["verdicts"]["dominance"]
        assert [c["policy"] for c in document["cells"]] == [
            p for p in POLICY_LADDER for _ in document["fault_rates"]
        ]

    def test_jobs_do_not_change_the_document(self):
        kwargs = dict(smoke=True, root_seed=0, output=None, with_perf=False)
        serial = run_chaos_bench(jobs=1, **kwargs)
        sharded = run_chaos_bench(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        policy_name=st.sampled_from(POLICY_LADDER),
        crash=st.floats(min_value=0.0, max_value=0.25),
        hang=st.floats(min_value=0.0, max_value=0.15),
        straggle=st.floats(min_value=0.0, max_value=0.25),
    )
    @settings(max_examples=20, deadline=None)
    @example(
        # regression: repeated crash hand-backs refund the retry budget
        # but still count as dispatches, so attempts may exceed it
        seed=669,
        policy_name="retry",
        crash=0.25,
        hang=0.0,
        straggle=0.0,
    )
    @example(
        # regression: a request that hedged mid-flight but terminated via
        # a plain retry must still get the hedge-doubled attempt bound,
        # and each handed-back dispatch may have fired a hedge of its own
        seed=1933216,
        policy_name="retry-hedge",
        crash=0.171875,
        hang=0.0,
        straggle=0.125,
    )
    def test_conservation_under_any_faults_and_policy(
        seed, policy_name, crash, hang, straggle
    ):
        """Every admitted request terminates exactly once -- completed or
        terminally failed -- and nothing is lost or duplicated, for any
        policy rung under any fault mix."""
        result = run_chaos(
            uniform_trace(25, gap_cycles=2 * MS),
            WorkerFaultModel(
                crash_rate=crash, hang_rate=hang, straggle_rate=straggle
            ),
            policy_named(policy_name),
            seed=seed,
        )
        assert_conserved(result)
        max_attempts = (
            result.policy.retry.max_attempts if result.policy.retry else 1
        )
        for record in result.records:
            # each charged-or-handed-back dispatch may fire one hedge,
            # and both the hedge dispatch and the hand-back count toward
            # the record's attempt tally while only charged tries are
            # bounded by the retry budget
            budget = max_attempts + record.handed_back
            bound = 2 * budget if record.hedged else budget
            assert record.attempts <= bound
