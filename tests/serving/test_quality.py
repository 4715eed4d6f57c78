"""Quality-aware shedding: policy mapping and serving-tier integration."""

import dataclasses

import pytest

from repro.dynamic.decision import ALWAYS_LATE
from repro.serving import (
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    TraceConfig,
    simulate_serving,
)
from repro.serving.loadgen import generate_trace
from repro.serving.fleet import (
    DEFAULT_SLO_CLASSES,
    FleetConfig,
    FleetSimulator,
    SloClass,
)
from repro.serving.quality import QualityPolicy, decision_record_fields


class TestQualityPolicy:
    def test_zero_pressure_serves_full_depth(self):
        policy = QualityPolicy()
        assert policy.threshold_for(0, 64) == ALWAYS_LATE

    def test_thresholds_step_down_with_occupancy(self):
        policy = QualityPolicy(occupancies=(0.25, 0.4), thresholds=(0.85, 0.6))
        assert policy.threshold_for(16, 64) == ALWAYS_LATE  # at breakpoint
        assert policy.threshold_for(17, 64) == 0.85
        assert policy.threshold_for(30, 64) == 0.6

    def test_monotone_in_queue_depth(self):
        policy = QualityPolicy()
        thresholds = [policy.threshold_for(d, 64) for d in range(65)]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_disabled_policy_never_sheds(self):
        policy = QualityPolicy.disabled()
        assert not policy.enabled
        assert policy.threshold_for(64, 64) == ALWAYS_LATE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"occupancies": (0.4, 0.25), "thresholds": (0.85, 0.6)},
            {"occupancies": (0.25, 0.4), "thresholds": (0.6, 0.85)},
            {"occupancies": (0.25,), "thresholds": (0.85, 0.6)},
            {"occupancies": (1.5,), "thresholds": (0.85,)},
            {"occupancies": (0.25,), "thresholds": (1.5,)},
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QualityPolicy(**kwargs)

    def test_record_fields_empty_for_static_service(self):
        assert decision_record_fields("lstm", None) == {}


def _trace(rate_rps, n_requests=60, seed=3):
    return generate_trace(
        TraceConfig(
            n_requests=n_requests,
            rate_rps=rate_rps,
            models=("resnet18", "lstm"),
            seed=seed,
        )
    )


class TestServingIntegration:
    def test_overload_with_quality_sheds_depth(self):
        config = ServerConfig(quality=QualityPolicy())
        result = simulate_serving(_trace(4000.0), config=config)
        summary = result.summary
        assert summary.early_exits > 0
        assert summary.mean_exit_depth < 1.0
        assert summary.mean_quality_drop > 0.0
        exited = [r for r in result.records if r.exited_early]
        assert exited
        assert all(r.request.model == "resnet18" for r in exited)
        assert all(0.0 < r.exit_depth < 1.0 for r in exited)
        assert all(r.quality_drop > 0.0 for r in exited)

    def test_disabled_quality_matches_static_serving(self):
        trace = _trace(4000.0)
        static = simulate_serving(trace, config=ServerConfig())
        disabled = simulate_serving(
            trace, config=ServerConfig(quality=QualityPolicy.disabled())
        )
        assert disabled.summary == static.summary

    def test_never_firing_quality_matches_static_serving(self):
        """A policy whose threshold is always ALWAYS_LATE is bit-inert."""
        trace = _trace(4000.0)
        static = simulate_serving(trace, config=ServerConfig())
        armed = simulate_serving(
            trace,
            config=ServerConfig(
                quality=QualityPolicy(occupancies=(0.99,), thresholds=(1.0,))
            ),
        )
        assert armed.summary == dataclasses.replace(
            static.summary,
            early_exits=0,
            early_exit_rate=0.0,
            mean_exit_depth=1.0,
            mean_quality_drop=0.0,
        )

    def test_nominal_load_stays_full_depth(self):
        config = ServerConfig(quality=QualityPolicy())
        result = simulate_serving(
            _trace(50.0, n_requests=30), config=config
        )
        assert result.summary.early_exits == 0
        assert result.summary.mean_exit_depth == 1.0


class TestFleetIntegration:
    def _run(self, quality, slo_classes=DEFAULT_SLO_CLASSES):
        config = FleetConfig(
            slo_classes=slo_classes,
            model_classes={"resnet18": "interactive", "lstm": "bulk"},
            batch=BatchPolicy(max_batch=8),
            admission=AdmissionConfig(max_queue_depth=64),
            quality=quality,
        )
        return FleetSimulator(config=config).run(
            trace=_trace(2500.0, n_requests=80)
        )

    def test_per_class_quality_accounting(self):
        result = self._run(QualityPolicy())
        interactive = result.per_class["interactive"]
        bulk = result.per_class["bulk"]
        for account in (interactive, bulk):
            assert {
                "sheddable", "early_exits", "mean_exit_depth",
                "mean_quality_drop",
            } <= set(account)
        assert interactive["early_exits"] > 0
        assert interactive["mean_exit_depth"] < 1.0
        # the static RNN class never sheds depth
        assert bulk["early_exits"] == 0
        assert bulk["mean_exit_depth"] == 1.0
        assert bulk["mean_quality_drop"] == 0.0

    def test_non_sheddable_class_stays_full_depth(self):
        pinned = tuple(
            dataclasses.replace(cls, sheddable=False)
            for cls in DEFAULT_SLO_CLASSES
        )
        result = self._run(QualityPolicy(), slo_classes=pinned)
        assert result.summary.early_exits == 0
        for account in result.per_class.values():
            assert account["sheddable"] is False
            assert account["early_exits"] == 0

    def test_sheddable_is_the_default(self):
        assert all(cls.sheddable for cls in DEFAULT_SLO_CLASSES)
        assert SloClass(name="x", target_ms=1.0).sheddable
