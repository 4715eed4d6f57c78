"""Tests for admission control: token bucket + queue-depth shedding."""

import pytest

from repro.serving import AdmissionConfig
from repro.serving.request import REJECT_QUEUE_FULL, REJECT_RATE_LIMITED
from repro.serving.admission import AdmissionController, TokenBucket


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate_per_cycle=1e-6, burst=3)
        assert [bucket.take(0) for _ in range(4)] == [True, True, True, False]

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_per_cycle=1e-3, burst=1)
        assert bucket.take(0)
        assert not bucket.take(0)
        assert bucket.take(1_000)  # one token refilled after 1/rate cycles

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_cycle=1.0, burst=2)
        assert bucket.take(0) and bucket.take(0)
        # a long idle period refills to the cap, not beyond it
        results = [bucket.take(10**9) for _ in range(3)]
        assert results == [True, True, False]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate_per_cycle"):
            TokenBucket(rate_per_cycle=0.0, burst=1)


class TestAdmissionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"rate_limit_rps": 0.0},
            {"rate_limit_rps": -5.0},
            {"burst": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)


class TestAdmissionController:
    def test_queue_bound_reject(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=4))
        assert controller.admit(0, queue_depth=3) is None
        assert controller.admit(0, queue_depth=4) == REJECT_QUEUE_FULL

    def test_rate_limit_reject(self):
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=100, rate_limit_rps=1.0, burst=2),
            clock_hz=1e9,
        )
        assert controller.admit(0, queue_depth=0) is None
        assert controller.admit(0, queue_depth=0) is None
        assert controller.admit(0, queue_depth=0) == REJECT_RATE_LIMITED
        # a simulated second later one token is back
        assert controller.admit(10**9, queue_depth=0) is None

    def test_counters(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=1))
        controller.admit(0, queue_depth=0)
        controller.admit(0, queue_depth=1)
        controller.admit(0, queue_depth=1)
        assert controller.offered == 3
        assert controller.admitted == 1
        assert controller.rejects_by_reason == {REJECT_QUEUE_FULL: 2}

    def test_no_rate_limit_by_default(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=10**6))
        assert all(
            controller.admit(0, queue_depth=0) is None for _ in range(1000)
        )
