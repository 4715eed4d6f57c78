"""Tests for the shared config range check and its use by every config
dataclass: non-finite values fail at construction, naming the field."""

import dataclasses

import pytest

from repro.baselines.base import BaselineCharacter
from repro.dynamic.costmodel import ExitPricing
from repro.dynamic.exits import EarlyExitModel, ExitPoint
from repro.reliability.degrade import DegradationBudget, DegradationPolicy
from repro.reliability.faults import (
    BiasedSpeculator,
    DramTransferFaults,
    IMapBitFlips,
    OMapBitFlips,
    StuckAtRows,
    WeightCorruption,
)
from repro.reliability.guards import ConsistencyAuditor
from repro.reliability.workerfaults import WorkerFaultModel
from repro.serving import (
    AdmissionConfig,
    AutoscalerPolicy,
    BatchPolicy,
    FleetConfig,
    ServerConfig,
)
from repro.serving.faulttol import (
    BreakerPolicy,
    FaultTolerancePolicy,
    HealthPolicy,
    HedgePolicy,
    RetryPolicy,
)
from repro.serving.overload import OverloadPolicy
from repro.serving.quality import QualityPolicy
from repro.serving.fleet import SloClass
from repro.serving.loadgen import ClosedLoopConfig, TraceConfig
from repro.sim.batching import ServiceModel, WorkerPool
from repro.sim.config import DuetConfig
from repro.sim.dram import TransferRetryPolicy
from repro.sim.energy import EnergyModel
from repro.sim.sharding import GlbPartition, ShardPlan
from repro.validation import check_range, require_range
from repro.workloads.sparsity import SparsityModel

NAN, INF = float("nan"), float("inf")

#: every config dataclass that validates through the helper, with the
#: required arguments of a valid instance
CONFIG_CLASSES = {
    DuetConfig: {},
    ShardPlan: {},
    GlbPartition: {"fractions": {"a": 1.0}},
    TransferRetryPolicy: {},
    ServiceModel: {},
    WorkerPool: {"size": 1},
    EnergyModel: {},
    TraceConfig: {},
    ClosedLoopConfig: {},
    AdmissionConfig: {},
    BatchPolicy: {},
    OverloadPolicy: {},
    QualityPolicy: {},
    ServerConfig: {},
    SloClass: {"name": "bulk", "target_ms": 50.0},
    AutoscalerPolicy: {},
    FleetConfig: {},
    RetryPolicy: {},
    HedgePolicy: {},
    BreakerPolicy: {},
    HealthPolicy: {},
    FaultTolerancePolicy: {"name": "ft"},
    SparsityModel: {},
    WorkerFaultModel: {},
    DegradationBudget: {},
    DegradationPolicy: {},
    OMapBitFlips: {},
    IMapBitFlips: {},
    WeightCorruption: {},
    DramTransferFaults: {},
    StuckAtRows: {},
    BiasedSpeculator: {},
    ConsistencyAuditor: {},
    ExitPoint: {"name": "early", "after_layer": "conv1"},
    EarlyExitModel: None,  # no numeric field; needs a model spec to build
    ExitPricing: {"max_drop": 0.1, "exponent": 1.0},
    BaselineCharacter: {"name": "base"},
}

FLOAT_FIELDS = [
    (cls, f.name)
    for cls in CONFIG_CLASSES
    for f in dataclasses.fields(cls)
    if str(f.type).replace(" ", "") in ("float", "float|None")
]


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
)
def test_non_finite_float_field_rejected(cls, name, value):
    with pytest.raises(ValueError) as info:
        cls(**{**CONFIG_CLASSES[cls], name: value})
    assert str(info.value).startswith(f"{cls.__name__}.{name} ")


def test_every_class_with_a_float_field_is_walked():
    assert {cls for cls, _ in FLOAT_FIELDS} >= {
        DuetConfig, EnergyModel, SloClass, RetryPolicy, SparsityModel,
        AdmissionConfig, BaselineCharacter, ExitPricing, WorkerFaultModel,
    }


@pytest.mark.parametrize(
    "build, field",
    [
        # a NaN target used to zero the class's goodput silently
        (lambda: SloClass("bulk", target_ms=NAN), "SloClass.target_ms"),
        # these used to fail mid-run converting NaN microseconds to cycles
        (lambda: RetryPolicy(timeout_us=NAN), "RetryPolicy.timeout_us"),
        (lambda: HealthPolicy(cold_restart_us=NAN), "HealthPolicy.cold_restart_us"),
        (
            lambda: AutoscalerPolicy(eval_interval_us=NAN),
            "AutoscalerPolicy.eval_interval_us",
        ),
        (
            lambda: FaultTolerancePolicy("ft", deadline_us=NAN),
            "FaultTolerancePolicy.deadline_us",
        ),
        # used to fail inside DuetAccelerator.run
        (lambda: DuetConfig(dram_bandwidth=NAN), "DuetConfig.dram_bandwidth"),
        # fields with no check before
        (lambda: TraceConfig(clock_hz=0.0), "TraceConfig.clock_hz"),
        (lambda: ClosedLoopConfig(clock_hz=-1.0), "ClosedLoopConfig.clock_hz"),
        (
            lambda: BaselineCharacter("b", glb_accesses_per_mac=-0.5),
            "BaselineCharacter.glb_accesses_per_mac",
        ),
        (lambda: EnergyModel(mac_int16=-1.0), "EnergyModel.mac_int16"),
        (
            lambda: OverloadPolicy(thresholds=(0.5, NAN, 0.9)),
            "OverloadPolicy.thresholds",
        ),
        (
            lambda: GlbPartition(fractions={"a": NAN}),
            "GlbPartition.fractions['a']",
        ),
    ],
)
def test_rejected_at_construction(build, field):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value).startswith(f"{field} must be ")


class _Config:
    def __init__(self, **fields):
        self.__dict__.update(fields)


class TestCheckRange:
    @pytest.mark.parametrize(
        "bounds, ok, bad",
        [
            ({"gt": 0}, [1e-12, 5], [0, -1]),
            ({"ge": 0}, [0, 0.0, 3], [-1e-12]),
            ({"ge": 1}, [1, 2.5], [0.999]),
            ({"gt": 0, "le": 1}, [1e-9, 1.0], [0.0, 1.0001]),
            ({"ge": 0, "lt": 1}, [0.0, 0.999], [1.0, -0.1]),
        ],
    )
    def test_open_and_closed_ends(self, bounds, ok, bad):
        for value in ok:
            require_range("X.f", value, **bounds)
        for value in bad:
            with pytest.raises(ValueError, match=r"^X\.f must be "):
                require_range("X.f", value, **bounds)

    @pytest.mark.parametrize(
        "bounds, value, message",
        [
            ({"gt": 0}, 0, "X.f must be positive, got 0"),
            ({"ge": 0}, -2, "X.f must be non-negative, got -2"),
            ({"ge": 1}, 0.5, "X.f must be >= 1, got 0.5"),
            ({"gt": 0, "le": 100}, 101.0, "X.f must be in (0, 100], got 101.0"),
            ({"ge": 0, "lt": 1}, 1.0, "X.f must be in [0, 1), got 1.0"),
            ({"gt": 0}, INF, "X.f must be finite and positive, got inf"),
            ({"ge": 0}, NAN, "X.f must be finite and non-negative, got nan"),
            ({"ge": 0, "le": 1}, NAN, "X.f must be in [0, 1], got nan"),
        ],
    )
    def test_message(self, bounds, value, message):
        with pytest.raises(ValueError) as info:
            require_range("X.f", value, **bounds)
        assert str(info.value) == message

    def test_huge_int_is_finite(self):
        require_range("X.f", 10**400, gt=0)

    def test_optional_none_is_skipped(self):
        check_range(_Config(rate=None), "rate", gt=0, optional=True)
        with pytest.raises(ValueError, match=r"^_Config\.rate must be positive"):
            check_range(_Config(rate=0.0), "rate", gt=0, optional=True)

    def test_names_the_class_and_each_field(self):
        config = _Config(a=1, b=0)
        check_range(config, "a", ge=0)
        with pytest.raises(ValueError, match=r"^_Config\.b must be positive, got 0$"):
            check_range(config, "a", "b", gt=0)

    def test_tuple_checked_per_element(self):
        check_range(_Config(t=(0.2, 1.0)), "t", gt=0, le=1)
        with pytest.raises(ValueError, match=r"^_Config\.t must be in \(0, 1\], got 0$"):
            check_range(_Config(t=(0.5, 0)), "t", gt=0, le=1)
