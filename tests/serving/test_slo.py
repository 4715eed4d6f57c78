"""Tests for SLO accounting: percentiles and run summaries."""

import pytest

from repro.serving import (
    COMPLETED,
    REJECT_QUEUE_FULL,
    REJECTED,
    SERVING_LADDER,
    Request,
    RequestRecord,
    percentile,
    summarize,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 1) == 1.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def completed(rid, arrival, dispatch, done, stage="DUET", batch=2):
    return RequestRecord(
        Request(rid=rid, model="lstm", arrival_cycle=arrival, workload_seed=0),
        COMPLETED,
        stage=stage,
        batch_size=batch,
        dispatch_cycle=dispatch,
        completion_cycle=done,
    )


def rejected(rid, arrival):
    return RequestRecord(
        Request(rid=rid, model="lstm", arrival_cycle=arrival, workload_seed=0),
        REJECTED,
        reject_reason=REJECT_QUEUE_FULL,
    )


class TestSummarize:
    def test_counts_rates_and_latency(self):
        # 1 GHz clock: 1e6 cycles = 1 ms
        records = [
            completed(0, arrival=0, dispatch=1_000_000, done=2_000_000),
            completed(1, arrival=0, dispatch=1_000_000, done=2_000_000),
            completed(
                2,
                arrival=1_000_000,
                dispatch=1_000_000,
                done=4_000_000,
                stage="IOS",
                batch=1,
            ),
            rejected(3, arrival=2_000_000),
        ]
        summary = summarize(records, clock_hz=1e9)
        assert summary.offered == 4
        assert summary.completed == 3
        assert summary.rejected == 1
        assert summary.reject_rate == 0.25
        assert summary.rejects_by_reason == {REJECT_QUEUE_FULL: 1}
        # makespan: first arrival (0) to last completion (4 ms)
        assert summary.duration_ms == 4.0
        assert summary.throughput_rps == 3 / 0.004
        assert summary.latency_ms["p50"] == 2.0
        assert summary.latency_ms["max"] == 3.0
        assert summary.queue_ms["p99"] == 1.0
        # one 2-batch + one singleton = 2 dispatches
        assert summary.batches == 2
        assert summary.mean_batch_size == 1.5
        assert summary.stage_counts == {
            "DUET": 2, "IOS": 1, "BOS": 0, "OS": 0,
        }
        assert summary.degraded == 1
        assert summary.degrade_rate == pytest.approx(1 / 3)

    def test_all_rejected_run(self):
        summary = summarize([rejected(0, 0), rejected(1, 10)], clock_hz=1e9)
        assert summary.completed == 0
        assert summary.reject_rate == 1.0
        assert summary.latency_ms["p50"] is None
        assert summary.throughput_rps == 0.0
        assert summary.degrade_rate == 0.0

    def test_empty_run(self):
        summary = summarize([], clock_hz=1e9)
        assert summary.offered == 0
        assert summary.reject_rate == 0.0

    def test_every_ladder_rung_listed(self):
        summary = summarize(
            [completed(0, arrival=0, dispatch=0, done=1)], clock_hz=1e9
        )
        assert tuple(summary.stage_counts) == SERVING_LADDER

    def test_as_dict_follows_the_committed_key_order(self):
        summary = summarize(
            [completed(0, arrival=0, dispatch=0, done=1), rejected(1, 0)],
            clock_hz=1e9,
        )
        assert list(summary.as_dict()) == [
            "offered", "completed", "rejected", "reject_rate",
            "rejects_by_reason", "duration_ms", "throughput_rps",
            "latency_ms", "queue_ms", "batches", "mean_batch_size",
            "stage_counts", "degraded", "degrade_rate", "early_exits",
            "early_exit_rate", "mean_exit_depth", "mean_quality_drop",
        ]

    def test_as_dict_round_trips_format(self):
        records = [
            completed(0, arrival=0, dispatch=500_000, done=2_000_000),
            rejected(1, arrival=0),
        ]
        summary = summarize(records, clock_hz=1e9)
        as_dict = summary.as_dict()
        assert as_dict["offered"] == 2
        assert set(as_dict) >= {
            "latency_ms", "queue_ms", "throughput_rps", "stage_counts",
        }
        text = summary.format()
        assert "p50" in text and "queue-full=1" in text
