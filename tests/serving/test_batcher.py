"""Tests for the dynamic batcher: max-batch / max-wait dispatch, FIFO."""

import pytest

from repro.serving import BatchPolicy
from repro.serving.batcher import DynamicBatcher
from repro.serving.request import Request


def req(rid, model="alexnet", arrival=0, seed=0):
    return Request(rid=rid, model=model, arrival_cycle=arrival, workload_seed=seed)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_us"):
            BatchPolicy(max_wait_us=-1.0)

    def test_wait_cycles_at_default_clock(self):
        assert BatchPolicy(max_wait_us=200.0).max_wait_cycles(1e9) == 200_000


class TestDispatch:
    def test_not_dispatchable_before_deadline_or_full(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_us=100.0))
        batcher.push(req(0, arrival=0))
        assert batcher.pop_batch(now_cycle=50_000) is None

    def test_full_batch_dispatches_immediately(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_us=1e6))
        batcher.push(req(0))
        batcher.push(req(1))
        batch = batcher.pop_batch(now_cycle=0)
        assert [r.rid for r in batch] == [0, 1]
        assert batcher.depth == 0

    def test_deadline_flushes_partial_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=100.0))
        batcher.push(req(0, arrival=0))
        assert batcher.pop_batch(now_cycle=99_999) is None
        batch = batcher.pop_batch(now_cycle=100_000)
        assert [r.rid for r in batch] == [0]

    def test_zero_wait_is_batchless_fifo(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        batcher.push(req(0))
        assert [r.rid for r in batcher.pop_batch(now_cycle=0)] == [0]

    def test_never_mixes_models(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        batcher.push(req(0, model="alexnet"))
        batcher.push(req(1, model="lstm"))
        batcher.push(req(2, model="alexnet"))
        first = batcher.pop_batch(now_cycle=0)
        assert {r.model for r in first} == {"alexnet"}
        assert [r.rid for r in first] == [0, 2]
        assert [r.rid for r in batcher.pop_batch(now_cycle=0)] == [1]

    def test_oldest_head_served_first(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        batcher.push(req(0, model="lstm", arrival=5))
        batcher.push(req(1, model="alexnet", arrival=3))
        assert batcher.pop_batch(now_cycle=10)[0].model == "alexnet"

    def test_batch_capped_at_max_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=3, max_wait_us=0.0))
        for i in range(7):
            batcher.push(req(i))
        assert len(batcher.pop_batch(now_cycle=0)) == 3
        assert batcher.depth == 4


class TestFlushDeadline:
    def test_empty_has_no_deadline(self):
        assert DynamicBatcher().next_flush_cycle() is None

    def test_deadline_tracks_oldest_head(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=100.0))
        batcher.push(req(0, model="lstm", arrival=40_000))
        batcher.push(req(1, model="alexnet", arrival=10_000))
        assert batcher.next_flush_cycle() == 10_000 + 100_000
