"""Seeded open-loop load generation: Poisson and bursty arrival processes.

The generator produces an **arrival trace** -- a list of
:class:`~repro.serving.request.Request` sorted by arrival cycle -- that
the serving simulator then replays.  Open-loop means arrivals do not slow
down when the server backs up (a million independent users do not
coordinate), which is exactly the regime where admission control and
load shedding earn their keep.

Two arrival processes:

- ``poisson``: independent exponential inter-arrival gaps at
  ``rate_rps`` -- the classic memoryless baseline.
- ``bursty``: a two-state modulated Poisson process that alternates a
  *hot* phase at ``rate_rps * burst_factor`` and a *quiet* phase at
  ``rate_rps / burst_factor``; after every arrival the phase flips with
  probability ``switch_probability``, giving geometrically-distributed
  run lengths of clumped and sparse traffic.  Same marginal gap scale,
  far heavier tail pressure on the queue -- the case *SparseNN*-style
  per-sample variation makes against static batch scheduling.

Every trace is a pure function of its :class:`TraceConfig` (one
`numpy` generator seeded from ``seed``), so campaigns are exactly
reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.serving.request import Request
from repro.validation import check_range

__all__ = [
    "ARRIVAL_PROCESSES",
    "ClosedLoopConfig",
    "TraceConfig",
    "generate_trace",
]

#: The supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "bursty")


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of one generated arrival trace.

    Attributes:
        n_requests: trace length.
        rate_rps: mean arrival rate in requests per simulated second
            (for ``bursty``, the geometric mean of the two phase rates).
        arrival: one of :data:`ARRIVAL_PROCESSES`.
        models: benchmark models in the traffic mix.
        model_weights: mix probabilities (uniform when None).
        workload_variants: per-request workload seeds are drawn from
            ``[0, workload_variants)`` -- the number of distinct input
            samples circulating in the traffic.
        seed: trace seed.
        clock_hz: simulated clock for second -> cycle conversion.
        burst_factor: hot/quiet rate multiplier of the bursty process.
        switch_probability: per-arrival phase-flip probability.
    """

    n_requests: int = 1000
    rate_rps: float = 200.0
    arrival: str = "poisson"
    models: tuple[str, ...] = ("alexnet", "lstm")
    model_weights: tuple[float, ...] | None = None
    workload_variants: int = 4
    seed: int = 0
    clock_hz: float = 1e9
    burst_factor: float = 4.0
    switch_probability: float = 0.02

    def __post_init__(self):
        check_range(self, "n_requests", ge=1)
        check_range(self, "rate_rps", "clock_hz", gt=0)
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"TraceConfig.arrival must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival!r}"
            )
        if not self.models:
            raise ValueError("TraceConfig.models must name at least one model")
        if self.model_weights is not None:
            if len(self.model_weights) != len(self.models):
                raise ValueError(
                    f"TraceConfig.model_weights has {len(self.model_weights)} "
                    f"entries for {len(self.models)} models"
                )
            check_range(self, "model_weights", ge=0)
            total = sum(self.model_weights)
            try:
                usable = 0 < float(total) < math.inf
            except OverflowError:  # an int sum past the float range
                usable = False
            if not usable:
                raise ValueError(
                    "TraceConfig.model_weights must sum to a positive finite "
                    f"total, got {total}"
                )
        check_range(self, "workload_variants", "burst_factor", ge=1)
        check_range(self, "switch_probability", ge=0, le=1)


@dataclass(frozen=True)
class ClosedLoopConfig:
    """A closed-loop client population with an exponential think-time
    model.

    Open-loop traces (:class:`TraceConfig`) model independent anonymous
    traffic; a *closed* loop models a finite population of sessions:
    each client issues one request, waits for its terminal outcome, then
    "thinks" for an exponentially-distributed pause before issuing the
    next -- so offered load self-regulates with server latency (the
    interactive-session regime of the fleet tier,
    :mod:`repro.serving.fleet`).

    Every client's request/think stream descends from its own
    ``SeedSequence`` child of ``seed``, so the population replays
    byte-identically regardless of completion interleaving.

    Attributes:
        clients: concurrent sessions.
        requests_per_client: requests each session issues before leaving.
        think_time_us: mean think pause in simulated microseconds.
        models: traffic-mix models (uniform mix).
        workload_variants: per-request workload seeds are drawn from
            ``[0, workload_variants)``.
        seed: population seed.
        clock_hz: simulated clock for second -> cycle conversion.
    """

    clients: int = 8
    requests_per_client: int = 25
    think_time_us: float = 2000.0
    models: tuple[str, ...] = ("alexnet", "lstm")
    workload_variants: int = 4
    seed: int = 0
    clock_hz: float = 1e9

    def __post_init__(self):
        check_range(
            self, "clients", "requests_per_client", "workload_variants", ge=1
        )
        check_range(self, "think_time_us", ge=0)
        check_range(self, "clock_hz", gt=0)
        if not self.models:
            raise ValueError(
                "ClosedLoopConfig.models must name at least one model"
            )

    def client_rng(self, client: int) -> np.random.Generator:
        """The seeded generator driving client ``client``'s stream."""
        if not 0 <= client < self.clients:
            raise ValueError(
                f"client must be in [0, {self.clients}), got {client}"
            )
        children = np.random.SeedSequence(self.seed).spawn(self.clients)
        return np.random.default_rng(children[client])

    def think_cycles(self, rng: np.random.Generator) -> int:
        """One exponential think pause, in simulated cycles."""
        if self.think_time_us <= 0:
            return 0
        seconds = float(rng.exponential(self.think_time_us * 1e-6))
        return int(round(seconds * self.clock_hz))

    def draw_request(self, rng: np.random.Generator) -> tuple[str, int]:
        """One ``(model, workload_seed)`` draw from the client's mix."""
        model = self.models[int(rng.integers(len(self.models)))]
        return model, int(rng.integers(self.workload_variants))


def generate_trace(config: TraceConfig) -> list[Request]:
    """Generate one arrival trace; a pure function of ``config``.

    Stream contract: one ``np.random.default_rng(config.seed)`` makes,
    per request and in this order, the bursty phase-flip ``random()``
    (``bursty`` only), the ``exponential(1 / rate)`` gap at the phase's
    rate before the flip, one ``random()`` that picks the model, and
    ``integers(workload_variants)``.  The model pick is what
    ``Generator.choice(len(models), p=...)`` does for one draw: the
    first index whose normalised cumulative weight exceeds the uniform,
    so a trace is the same bits as one drawn with ``choice``.
    """
    rng = np.random.default_rng(config.seed)
    models = config.models
    weights = config.model_weights
    if weights is None:
        probabilities = np.full(len(models), 1.0 / len(models))
    else:
        probabilities = np.asarray(weights, dtype=float) / sum(weights)
    # the CDF exactly as ``Generator.choice`` builds it
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    random, exponential, integers = rng.random, rng.exponential, rng.integers
    variants = config.workload_variants
    clock_hz = config.clock_hz
    bursty = config.arrival == "bursty"
    switch_probability = config.switch_probability
    poisson_scale = 1.0 / config.rate_rps
    hot_scale = 1.0 / (config.rate_rps * config.burst_factor)
    quiet_scale = 1.0 / (config.rate_rps / config.burst_factor)

    hot = bursty  # bursty traces open in the hot phase
    t_seconds = 0.0
    trace: list[Request] = []
    append = trace.append
    for rid in range(config.n_requests):
        if bursty:
            scale = hot_scale if hot else quiet_scale
            if random() < switch_probability:
                hot = not hot
        else:
            scale = poisson_scale
        t_seconds += float(exponential(scale))
        model = models[bisect_right(cdf, random())]
        append(
            Request(
                rid=rid,
                model=model,
                arrival_cycle=int(round(t_seconds * clock_hz)),
                workload_seed=int(integers(variants)),
            )
        )
    return trace
