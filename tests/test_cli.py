"""Tests for the command-line interface."""

import argparse
import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out, err=io.StringIO())
    return code, out.getvalue()


def run_cli_err(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestListModels:
    def test_lists_all(self):
        code, text = run_cli("list-models")
        assert code == 0
        for name in ("alexnet", "vgg16", "resnet18", "resnet50", "lstm", "gru", "gnmt"):
            assert name in text


class TestSimulate:
    def test_cnn_default(self):
        code, text = run_cli("simulate", "--model", "alexnet")
        assert code == 0
        assert "conv1" in text and "total:" in text

    def test_rnn(self):
        code, text = run_cli("simulate", "--model", "lstm", "--stage", "BASE")
        assert code == 0
        assert "lstm1" in text

    def test_include_fc(self):
        code, text = run_cli("simulate", "--model", "alexnet", "--include-fc")
        assert code == 0
        assert "fc6" in text

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--model", "bert")

    def test_include_fc_on_rnn_rejected(self):
        code, out, err = run_cli_err("simulate", "--model", "lstm", "--include-fc")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--include-fc" in err
        assert err.count("\n") == 1  # one line, no traceback


class TestStages:
    def test_breakdown_rows(self):
        code, text = run_cli("stages", "--model", "alexnet")
        assert code == 0
        for stage in ("BASE", "OS", "BOS", "IOS", "DUET"):
            assert stage in text


class TestCompare:
    def test_cnn_comparison(self):
        code, text = run_cli("compare", "--model", "alexnet")
        assert code == 0
        for design in ("eyeriss", "cnvlutin", "snapea", "predict"):
            assert design in text

    def test_rnn_rejected(self):
        code, out, err = run_cli_err("compare", "--model", "lstm")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "CNN models only" in err


class TestArea:
    def test_table(self):
        code, text = run_cli("area")
        assert code == 0
        assert "Executor total" in text
        assert "Speculator total" in text


class TestDeterminism:
    def test_same_seed_same_output(self):
        _, a = run_cli("simulate", "--model", "resnet18", "--seed", "3")
        _, b = run_cli("simulate", "--model", "resnet18", "--seed", "3")
        assert a == b

    def test_different_seed_different_cycles(self):
        _, a = run_cli("simulate", "--model", "resnet18", "--seed", "3")
        _, b = run_cli("simulate", "--model", "resnet18", "--seed", "4")
        assert a != b

class TestServe:
    def test_happy_path(self):
        code, text = run_cli(
            "serve", "--model", "lstm", "--requests", "80",
            "--rate", "2000", "--seed", "1", "--workers", "2",
        )
        assert code == 0
        assert "serving lstm at 2000 req/s" in text
        assert "latency" in text and "p50" in text
        assert "throughput" in text
        assert "queue peak" in text

    def test_default_mix_and_arrival_flag(self):
        code, text = run_cli(
            "serve", "--requests", "40", "--rate", "500",
            "--arrival", "bursty",
        )
        assert code == 0
        assert "serving alexnet, lstm" in text
        assert "bursty" in text

    def test_deterministic_across_runs(self):
        argv = ("serve", "--model", "lstm", "--requests", "60",
                "--rate", "3000", "--seed", "7")
        _, a = run_cli(*argv)
        _, b = run_cli(*argv)
        assert a == b

    def test_overload_reports_rejects(self):
        code, text = run_cli(
            "serve", "--model", "lstm", "--requests", "200",
            "--rate", "100000", "--workers", "1", "--queue-depth", "8",
        )
        assert code == 0
        assert "queue-full" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ("serve", "--requests", "0"),
            ("serve", "--rate", "0"),
            ("serve", "--workers", "0"),
            ("serve", "--max-batch", "0"),
            ("serve", "--requests", "10", "--variants", "0"),
            # non-finite values: caught by the flag or the config's check
            ("serve", "--max-wait-us", "inf"),
            ("serve", "--max-wait-us", "nan"),
            ("serve", "--rate", "inf"),
            ("serve", "--rate", "nan"),
            ("serve", "--rate-limit", "nan"),
        ],
    )
    def test_bad_values_exit_2(self, argv):
        code, out, err = run_cli_err(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, no traceback

    def test_unknown_arrival_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("serve", "--arrival", "uniform")


class TestLoadgen:
    def test_small_campaign(self, tmp_path):
        output = tmp_path / "BENCH_serving.json"
        code, text = run_cli(
            "loadgen", "--smoke", "--scale", "0.02",
            "--output", str(output),
        )
        assert code == 0
        for name in ("nominal", "overload", "capacity_batch1",
                     "capacity_batched"):
            assert name in text
        assert "overload stage counts:" in text
        assert "dynamic batching" in text
        assert output.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("loadgen", "--workers", "0"),
            ("loadgen", "--max-batch", "0"),
            ("loadgen", "--scale", "0"),
            ("loadgen", "--smoke", "--scale", "inf"),
            ("loadgen", "--smoke", "--scale", "nan"),
        ],
    )
    def test_bad_values_exit_2(self, argv):
        code, out, err = run_cli_err(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, no traceback


class TestChaos:
    def test_smoke_sweep(self, tmp_path):
        output = tmp_path / "BENCH_chaos.json"
        code, text = run_cli(
            "chaos", "--smoke", "--no-perf", "--output", str(output),
        )
        assert code == 0
        for rung in ("none", "retry", "retry-hedge", "retry-hedge-breaker"):
            assert rung in text
        assert "zero_lost=True" in text
        assert "zero_duplicates=True" in text
        assert "dominance at fault rate" in text
        assert "(holds)" in text
        assert output.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("chaos", "--workers", "0"),
            ("chaos", "--jobs", "0"),
        ],
    )
    def test_bad_values_exit_2(self, argv):
        code, out, err = run_cli_err(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestFleet:
    def test_smoke_campaign(self, tmp_path):
        output = tmp_path / "BENCH_fleet.json"
        code, text = run_cli(
            "fleet", "--smoke", "--no-perf", "--output", str(output),
        )
        assert code == 0
        for scenario in (
            "single_chip",
            "sharded_fleet",
            "overload_autoscale",
            "closed_loop",
        ):
            assert scenario in text
        assert "capacity feed:" in text
        assert "goodput dominance:" in text
        assert "holds" in text
        assert "autoscale out observed: True" in text
        assert "closed loop conserved: True" in text
        assert output.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("fleet", "--jobs", "0"),
        ],
    )
    def test_bad_values_exit_2(self, argv):
        code, out, err = run_cli_err(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


#: ``(subcommand, extra argv)`` of every campaign, at the smallest size.
CAMPAIGNS = [
    ("bench", ("--smoke",)),
    ("loadgen", ("--smoke",)),
    ("faults", ("--smoke",)),
    ("chaos", ("--smoke",)),
    ("fleet", ("--smoke",)),
    ("dynamic", ("--smoke",)),
]


class TestCampaignFlags:
    """The shared campaign flags are validated before any output."""

    @pytest.mark.parametrize("command, extra", CAMPAIGNS)
    def test_jobs_zero_exits_2_before_output(self, command, extra, tmp_path):
        code, out, err = run_cli_err(
            command, *extra, "--jobs", "0", "--output", str(tmp_path / "x.json")
        )
        assert code == 2
        assert out == ""
        assert err == "error: --jobs must be >= 1, got 0\n"

    @pytest.mark.parametrize("command, extra", CAMPAIGNS)
    def test_missing_output_directory_exits_2_before_running(
        self, command, extra, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        def never(**kwargs):
            raise AssertionError("the campaign must not run")

        for name in (
            "run_bench", "run_serving_bench", "run_fault_matrix",
            "run_chaos_bench", "run_fleet_bench", "run_dynamic_bench",
        ):
            monkeypatch.setattr(cli, name, never)
        missing = tmp_path / "missing" / "x.json"
        code, out, err = run_cli_err(command, *extra, "--output", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --output directory does not exist")
        assert err.count("\n") == 1


class TestFailedVerdictExitsOne:
    """A document whose checks fail exits 1 and keeps its failure line."""

    def test_bench_mismatch(self, tmp_path, monkeypatch):
        import repro.cli as cli

        def failing(**kwargs):
            kwargs["progress"]({
                "name": "fig11a_overall",
                "wall_time_s": {"fast": 0.1, "slow": 0.2},
                "speedup_vs_slow_path": 2.0,
                "equivalence": "MISMATCH",
            })
            return {"geomean_speedup_vs_slow_path": 2.0, "all_equivalent": False}

        monkeypatch.setattr(cli, "run_bench", failing)
        code, out, err = run_cli_err(
            "bench", "--smoke", "--output", str(tmp_path / "b.json")
        )
        assert code == 1
        assert err == ""
        assert "MISMATCH" in out
        assert "fast path diverged from the slow-path oracle" in out

    def test_fault_matrix_violation(self, tmp_path, monkeypatch):
        import repro.cli as cli

        def failing(**kwargs):
            return {
                "aggregates": {
                    "tasks": 4, "guarded": 4, "unguarded": 0,
                    "guarded_invariant_violations": 1,
                    "unguarded_invariant_violations": 0,
                },
                "all_guarded_invariants_held": False,
            }

        monkeypatch.setattr(cli, "run_fault_matrix", failing)
        code, out, err = run_cli_err(
            "faults", "--smoke", "--no-perf", "--output", str(tmp_path / "f.json")
        )
        assert code == 1
        assert err == ""
        assert (
            "values-never-corrupted invariant: VIOLATED in 1 guarded cell(s)"
            in out
        )


_MODELS = ("alexnet", "gnmt", "gru", "lstm", "resnet18", "resnet50", "vgg16")
_STAGES = ("BASE", "OS", "BOS", "IOS", "DUET")
_ARRIVALS = ("poisson", "bursty")
_CAMPAIGN_NAMES = (
    "dram-flaky", "none", "omap-flips", "severe", "smoke",
    "speculator-bias", "stuck-pe", "weight-mem",
)
_SUITE_NAMES = (
    "fig11a_overall", "fig12a_stage_speedup", "fig12b_utilization",
    "fig12d_rnn_memory", "fig12ef_energy_breakdown", "fig13a_speculator_size",
)


def _campaign(output, seed=True, slow_path=True):
    """The pinned rows of the flags every campaign shares."""
    rows = [("--smoke", "smoke", False, None, None)]
    if seed:
        rows.append(("--seed", "seed", 0, int, None))
    if slow_path:
        rows.append(("--slow-path", "slow_path", False, None, None))
    return rows + [
        ("--jobs", "jobs", 1, int, None),
        ("--output", "output", output, None, None),
        ("--no-perf", "no_perf", False, None, None),
    ]


#: subcommand -> ``(option, dest, default, type, choices)`` per action.
PINNED_ACTIONS = {
    "list-models": [],
    "simulate": [
        ("--model", "model", None, None, _MODELS),
        ("--stage", "stage", "DUET", None, _STAGES),
        ("--include-fc", "include_fc", False, None, None),
        ("--seed", "seed", 0, int, None),
    ],
    "stages": [
        ("--model", "model", None, None, _MODELS),
        ("--seed", "seed", 0, int, None),
    ],
    "compare": [
        ("--model", "model", None, None, _MODELS),
        ("--seed", "seed", 0, int, None),
    ],
    "area": [],
    "faults": [
        ("--model", "model", None, None, _MODELS),
        ("--campaign", "campaign", "smoke", None, _CAMPAIGN_NAMES),
        *_campaign("BENCH_faults.json", slow_path=False),
        ("--stage", "stage", "DUET", None, _STAGES),
        ("--no-guards", "no_guards", False, None, None),
    ],
    "bench": [
        *_campaign("BENCH_duet.json", seed=False, slow_path=False),
        ("--suite", "suite", None, None, _SUITE_NAMES),
        ("--warmup", "warmup", 1, int, None),
        ("--repeat", "repeat", 3, int, None),
        ("--list", "list_suites", False, None, None),
    ],
    "serve": [
        ("--model", "model", None, None, _MODELS),
        ("--requests", "requests", 1000, int, None),
        ("--rate", "rate", 200.0, float, None),
        ("--arrival", "arrival", "poisson", None, _ARRIVALS),
        ("--seed", "seed", 0, int, None),
        ("--workers", "workers", 2, int, None),
        ("--max-batch", "max_batch", 8, int, None),
        ("--max-wait-us", "max_wait_us", 200.0, float, None),
        ("--queue-depth", "queue_depth", 64, int, None),
        ("--rate-limit", "rate_limit", None, float, None),
        ("--variants", "variants", 4, int, None),
    ],
    "loadgen": [
        *_campaign("BENCH_serving.json"),
        ("--workers", "workers", 2, int, None),
        ("--max-batch", "max_batch", 8, int, None),
        ("--arrival", "arrival", "poisson", None, _ARRIVALS),
        ("--scale", "scale", 1.0, float, None),
    ],
    "chaos": [
        *_campaign("BENCH_chaos.json"),
        ("--workers", "workers", 3, int, None),
    ],
    "fleet": [
        *_campaign("BENCH_fleet.json"),
        ("--capacity-source", "capacity_source", "BENCH_serving.json", None, None),
    ],
    "dynamic": _campaign("BENCH_dynamic.json"),
    "lint": [
        (None, "paths", None, None, None),
        ("--root", "root", ".", None, None),
        ("--format", "output_format", "text", None, ("text", "json")),
        ("--rule", "rule", None, None, None),
        ("--baseline", "baseline", None, None, ("update",)),
        ("--no-baseline", "no_baseline", False, None, None),
        ("--strict", "strict", False, None, None),
        ("--output", "output", None, None, None),
        ("--graph-output", "graph_output", None, None, None),
        ("--list-rules", "list_rules", False, None, None),
    ],
}


class TestParserSurface:
    """Every subcommand's actions match the pinned table."""

    @staticmethod
    def _actions(name):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return {
            tuple(a.option_strings): (
                a.dest, a.default, a.type,
                tuple(a.choices) if a.choices is not None else None,
            )
            for a in sub.choices[name]._actions
            if a.dest != "help"
        }

    @pytest.mark.parametrize("name", sorted(PINNED_ACTIONS))
    def test_actions_match_pinned_table(self, name):
        expected = {
            (option,) if option else (): (dest, default, type_, choices)
            for option, dest, default, type_, choices in PINNED_ACTIONS[name]
        }
        assert self._actions(name) == expected

    def test_every_subcommand_is_pinned(self):
        from repro.cli import _COMMANDS

        assert set(PINNED_ACTIONS) == set(_COMMANDS)
