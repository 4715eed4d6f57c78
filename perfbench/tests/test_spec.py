"""``BENCHMARK.json`` is well formed and names exactly what the code reports."""

import re
from types import SimpleNamespace

import pytest

from perfbench import child, spans, suite
from perfbench.stats import load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_spec_has_the_contract_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_and_units_are_well_formed_and_unique(spec):
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in spec["end_to_end"] + spec["per_layer"])


def test_workloads_match_the_suite(spec):
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)


def test_per_layer_names_equal_what_the_code_computes(spec, tmp_path):
    from repro.core.cache import cache_stats

    stats = cache_stats()
    loop = {"untraced": [1.0], "traced": [1.0]}
    computed = {"setup.import_s", *child.layer_metrics(spans.Tracer(), loop, stats, stats)}
    zoo = suite.ZooSweep(0, "tiny", tmp_path)
    computed |= {f"hw.{m}.{k}" for m in zoo.models for k in ("duet_cycles", "speedup_vs_base")}
    computed |= {f"hw.{m}.event_gap" for m in zoo.event_models}
    serve = suite.ServeLoops(0, "tiny", tmp_path)
    result = SimpleNamespace(
        summary=SimpleNamespace(rejected=0, retries=0, hedges=0), scale_events=[]
    )
    serve.first = (result, result, result)
    computed |= set(serve.layer_metrics())
    campaigns = suite.Campaigns(0, "tiny", tmp_path)
    perf = {"wall_s": 1.0, "worker_efficiency": 1.0, "worker_busy_s": 1.0}
    campaigns.perf = {run[0]: [perf] for run in campaigns.campaigns}
    computed |= set(campaigns.layer_metrics())
    assert computed == {m["name"] for m in spec["per_layer"]}
