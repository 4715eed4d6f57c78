"""``compare.py`` verdicts, exact-count checks and exit codes."""

import json

import pytest

from perfbench import compare

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 1.2 for v in PARENT], "higher", "better"),
        ([v * 0.8 for v in PARENT], "lower", "better"),
        ([v * 0.8 for v in PARENT], "higher", "worse"),
        ([v * 1.2 for v in PARENT], "lower", "worse"),
        ([v * 1.01 for v in PARENT], "lower", "unchanged"),
        (list(PARENT), "higher", "unchanged"),
        ([60.0, 140.0, 95.0, 105.0, 70.0, 130.0, 100.0, 100.0, 80.0, 120.0], "higher", "unresolved"),
    ],
)
def test_verdicts(change, better, expected):
    assert compare.verdict(PARENT, change, better, bound=0.1) == expected


def test_wide_spread_is_not_unresolved_when_every_change_run_is_better():
    parent = [80.0, 120.0, 100.0, 90.0, 110.0]
    change = [121.0, 125.0, 122.0, 130.0, 124.0]
    assert compare.verdict(parent, change, "higher", bound=0.1) != "unresolved"


def _record(workload, value, trace=0, seed=0, failed=0, counts=None):
    metrics = {"ops_per_s": {"value": value, "unit": "ops/s"}}
    if trace:
        metrics = {name: {"value": v, "unit": "cycles"} for name, v in (counts or {}).items()}
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": 10, "size": "full",
            "result": {"correct": not failed, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_exit_codes(tmp_path, capsys):
    same = [_record("zoo_sweep", v) for v in PARENT]
    a = _write(tmp_path / "a.jsonl", same + [_record("zoo_sweep", 0, 1, counts={"hw.alexnet.duet_cycles": 7})])
    b = _write(tmp_path / "b.jsonl", same + [_record("zoo_sweep", 0, 1, counts={"hw.alexnet.duet_cycles": 7})])
    assert compare.main([a, b]) == 0
    drifted = _write(tmp_path / "c.jsonl",
                     same + [_record("zoo_sweep", 0, 1, counts={"hw.alexnet.duet_cycles": 8})])
    assert compare.main([a, drifted]) == 1
    assert "hw.alexnet.duet_cycles 7 -> 8" in capsys.readouterr().out
    slower = _write(tmp_path / "d.jsonl", [_record("zoo_sweep", v * 0.5) for v in PARENT])
    assert compare.main([a, slower]) == 1
    failing = _write(tmp_path / "e.jsonl", [_record("zoo_sweep", v, failed=1) for v in PARENT])
    assert compare.main([a, failing]) == 1
    assert compare.main([a, str(tmp_path / "missing.jsonl")]) == 2
    assert compare.main([a, _write(tmp_path / "f.jsonl", [{"workload": "zoo_sweep"}])]) == 2
    assert compare.main([a]) == 0


def test_baseline_sets_are_addressable(tmp_path):
    records = [_record("calibrate", v) for v in PARENT]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"sets": {"first": records, "second": records}}))
    assert compare.load_records(f"{path}#second") == records
    with pytest.raises(compare.InputError):
        compare.load_records(f"{path}#third")
