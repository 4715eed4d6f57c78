"""Tests for the seeded load generator."""

import hashlib

import numpy as np
import pytest

from repro.serving import TraceConfig
from repro.serving.request import Request
from repro.serving.loadgen import generate_trace

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False


def choice_trace(config):
    """Reference generator: the per-request loop that draws the model
    with ``rng.choice(..., p=...)``."""
    rng = np.random.default_rng(config.seed)
    weights = config.model_weights
    if weights is None:
        probabilities = np.full(len(config.models), 1.0 / len(config.models))
    else:
        probabilities = np.asarray(weights, dtype=float) / sum(weights)

    hot = config.arrival == "bursty"
    t_seconds = 0.0
    trace = []
    for rid in range(config.n_requests):
        if config.arrival == "poisson":
            rate = config.rate_rps
        else:
            rate = (
                config.rate_rps * config.burst_factor
                if hot
                else config.rate_rps / config.burst_factor
            )
            if rng.random() < config.switch_probability:
                hot = not hot
        t_seconds += float(rng.exponential(1.0 / rate))
        model = config.models[int(rng.choice(len(config.models), p=probabilities))]
        trace.append(
            Request(
                rid=rid,
                model=model,
                arrival_cycle=int(round(t_seconds * config.clock_hz)),
                workload_seed=int(rng.integers(config.workload_variants)),
            )
        )
    return trace


def trace_digest(trace):
    text = "".join(
        f"{r.rid},{r.model},{r.arrival_cycle},{r.workload_seed}\n" for r in trace
    )
    return hashlib.sha256(text.encode()).hexdigest()


MIX = ("alexnet", "lstm", "gru", "resnet18")

#: SHA-256 of each trace's ``rid,model,arrival_cycle,workload_seed`` lines,
#: recorded with the ``rng.choice`` generator.
PINNED_TRACES = {
    "default-poisson": (
        TraceConfig(),
        "47fae87ee09a287ce545eba25204769b2db55623598aaff41ed143e8050c5f6d",
    ),
    # the perfbench serve_loops trace shape
    "bursty-10k-three-model": (
        TraceConfig(
            n_requests=10_000,
            rate_rps=2600.0,
            arrival="bursty",
            models=MIX[:3],
            workload_variants=4,
            seed=1,
        ),
        "8a1f36bc68895e3a947004a01cd98314e1096333afd2aa3227858b71a7731629",
    ),
    "weights-with-zero": (
        TraceConfig(
            n_requests=2000,
            rate_rps=800.0,
            arrival="bursty",
            models=MIX[:3],
            model_weights=(3.0, 0.0, 1.0),
            seed=5,
        ),
        "ca4593eeb5ee31209ee4ccd428e0cbb7be10d1407dd61719711fc69a88b3d1b4",
    ),
    "single-model": (
        TraceConfig(n_requests=1000, models=("resnet18",), seed=2),
        "87fbba377700ada657d6df4e98be3238783e774cfc6dcaf30ce0606d685a2bcc",
    ),
    # integers(1) consumes no draw
    "one-variant": (
        TraceConfig(n_requests=1000, workload_variants=1, seed=3),
        "610873368cf5573f36be087c4b5db76ffe8ac645f7bc43692660b44fa10297f5",
    ),
    "never-switch": (
        TraceConfig(
            n_requests=1000, arrival="bursty", switch_probability=0.0, seed=4
        ),
        "23f78d367bfc8b6b8909675293758e48e8db15c451517f435b27049a32fafa2a",
    ),
    "always-switch": (
        TraceConfig(
            n_requests=1000, arrival="bursty", switch_probability=1.0, seed=4
        ),
        "cabe82638604aa5440422b967f473c20bffc86b2281f987c9221239ecb4c92a7",
    ),
}


class TestDeterminism:
    def test_same_config_same_trace(self):
        cfg = TraceConfig(n_requests=300, rate_rps=500.0, seed=7)
        assert generate_trace(cfg) == generate_trace(cfg)

    def test_different_seed_different_trace(self):
        a = generate_trace(TraceConfig(n_requests=100, seed=0))
        b = generate_trace(TraceConfig(n_requests=100, seed=1))
        assert a != b


class TestPinnedTraces:
    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_bits_unchanged(self, name):
        config, digest = PINNED_TRACES[name]
        assert trace_digest(generate_trace(config)) == digest


class TestTraceShape:
    def test_sorted_nonnegative_arrivals(self):
        trace = generate_trace(TraceConfig(n_requests=500, rate_rps=1000.0))
        arrivals = [r.arrival_cycle for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0
        assert [r.rid for r in trace] == list(range(500))

    def test_mean_rate_close_to_configured(self):
        cfg = TraceConfig(n_requests=4000, rate_rps=1000.0, seed=3)
        trace = generate_trace(cfg)
        span_s = trace[-1].arrival_cycle / cfg.clock_hz
        assert 1000.0 * 0.85 < len(trace) / span_s < 1000.0 * 1.15

    def test_models_and_variants_within_mix(self):
        cfg = TraceConfig(
            n_requests=200, models=("lstm", "gru"), workload_variants=3, seed=2
        )
        trace = generate_trace(cfg)
        assert {r.model for r in trace} == {"lstm", "gru"}
        assert all(0 <= r.workload_seed < 3 for r in trace)

    def test_model_weights_respected(self):
        cfg = TraceConfig(
            n_requests=300,
            models=("alexnet", "lstm"),
            model_weights=(1.0, 0.0),
        )
        assert {r.model for r in generate_trace(cfg)} == {"alexnet"}


class TestBursty:
    def test_burstier_than_poisson(self):
        """The modulated process has a heavier gap tail: its
        inter-arrival coefficient of variation exceeds the Poisson
        process's (which is ~1)."""

        def gap_cv(arrival):
            cfg = TraceConfig(
                n_requests=3000, rate_rps=500.0, arrival=arrival, seed=11
            )
            gaps = np.diff([r.arrival_cycle for r in generate_trace(cfg)])
            return gaps.std() / gaps.mean()

        assert gap_cv("bursty") > 1.3 * gap_cv("poisson")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_requests": 0},
            {"rate_rps": 0.0},
            {"arrival": "uniform"},
            {"models": ()},
            {"model_weights": (1.0,)},
            {"model_weights": (0.0, 0.0)},
            {"workload_variants": 0},
            {"burst_factor": 0.5},
            {"switch_probability": 1.5},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            TraceConfig(**kwargs)

    @pytest.mark.parametrize(
        "weights", [(0.0, 0.0), (1e308, 1e308), (10**400, 1)], ids=str
    )
    def test_weight_total_must_be_positive_and_finite(self, weights):
        with pytest.raises(ValueError, match=r"TraceConfig\.model_weights .*finite"):
            TraceConfig(model_weights=weights)


if HAVE_HYPOTHESIS:

    class TestChoiceOracle:
        @settings(max_examples=60, deadline=None)
        @given(
            data=st.data(),
            arrival=st.sampled_from(("poisson", "bursty")),
            n_models=st.integers(min_value=1, max_value=4),
            variants=st.integers(min_value=1, max_value=8),
            n_requests=st.integers(min_value=1, max_value=60),
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            rate=st.floats(min_value=1.0, max_value=1e5),
            burst_factor=st.floats(min_value=1.0, max_value=20.0),
            switch_probability=st.floats(min_value=0.0, max_value=1.0),
        )
        def test_equals_choice_reference(
            self,
            data,
            arrival,
            n_models,
            variants,
            n_requests,
            seed,
            rate,
            burst_factor,
            switch_probability,
        ):
            weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
            weights = data.draw(
                st.none()
                | st.lists(weight, min_size=n_models, max_size=n_models).filter(
                    lambda w: sum(w) > 0
                )
            )
            config = TraceConfig(
                n_requests=n_requests,
                rate_rps=rate,
                arrival=arrival,
                models=MIX[:n_models],
                model_weights=None if weights is None else tuple(weights),
                workload_variants=variants,
                seed=seed,
                burst_factor=burst_factor,
                switch_probability=switch_probability,
            )
            assert generate_trace(config) == choice_trace(config)
