"""Equivalence suite: vectorized fault injection vs the per-event oracle.

Three layers of the same contract, from the draw stream up to the merged
campaign document:

1. :meth:`DramFaultStream.failures` (the batched terminal-draw parse)
   consumes exactly the draws the per-event retry loop would, so both
   report identical failure counts per transfer (hypothesis-driven).
2. A full fault campaign is bit-identical between ``fast_path=True`` and
   the per-event slow path, for every built-in campaign type.
3. The sharded fault matrix merges to the same document for any
   ``--jobs`` value (``with_perf=False`` strips the only non-determinism).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.faults import run_fault_matrix
from repro.reliability.faults import CAMPAIGNS, DramFaultStream
from repro.reliability.runner import GuardSettings, run_fault_campaign
from repro.sim.config import DuetConfig


def _oracle_failures(stream, n_transfers, max_retries):
    """Failure counts via the per-event retry loop ``Dram.read``
    runs: draw until a success or until the attempt budget is spent."""
    out = []
    for _ in range(n_transfers):
        fails = 0
        for attempt in range(max_retries + 1):
            if not stream.fails():
                break
            fails += 1
        out.append(fails)
    return np.asarray(out, dtype=np.int64)


class TestFailuresParse:
    @given(
        n=st.integers(0, 300),
        max_retries=st.integers(0, 6),
        rate=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_event_retry_loop(self, n, max_retries, rate, seed):
        fast = DramFaultStream(np.random.default_rng(seed), rate=rate)
        slow = DramFaultStream(np.random.default_rng(seed), rate=rate)
        assert np.array_equal(
            fast.failures(n, max_retries),
            _oracle_failures(slow, n, max_retries),
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_draw_positions_stay_aligned(self, seed):
        """Interleaving batched and per-event consumption keeps both
        streams on the same draw sequence (the fast path hands the same
        stream to ``read`` and ``read_bulk``)."""
        fast = DramFaultStream(np.random.default_rng(seed), rate=0.3)
        slow = DramFaultStream(np.random.default_rng(seed), rate=0.3)
        for batch in (5, 1, 17, 0, 8):
            assert np.array_equal(
                fast.failures(batch, 3), _oracle_failures(slow, batch, 3)
            )
            assert fast.fails() == slow.fails()

    def test_zero_rate_shortcut(self):
        stream = DramFaultStream(np.random.default_rng(0), rate=0.0)
        assert np.array_equal(stream.failures(64, 3), np.zeros(64, dtype=np.int64))


class TestCampaignEquivalence:
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_fast_path_bit_identical_to_oracle(self, campaign):
        """Every campaign type: the vectorized fast path reproduces the
        per-event slow path's report exactly (cycles, counters, probe)."""
        reports = {}
        for fast_path in (True, False):
            report = run_fault_campaign(
                model="lstm",
                campaign=campaign,
                seed=3,
                config=DuetConfig(fast_path=fast_path),
            )
            reports[fast_path] = dataclasses.asdict(report)
        assert reports[True] == reports[False]

    def test_unguarded_foil_equivalent_too(self):
        reports = [
            dataclasses.asdict(
                run_fault_campaign(
                    model="gru",
                    campaign="dram-flaky",
                    seed=1,
                    guards=GuardSettings(enabled=False),
                    config=DuetConfig(fast_path=fast_path),
                )
            )
            for fast_path in (True, False)
        ]
        assert reports[0] == reports[1]


class TestShardedMatrixDeterminism:
    def test_jobs_do_not_change_the_document(self, tmp_path):
        """``--jobs 1`` and ``--jobs 2`` write byte-identical smoke
        matrices once the perf/history blocks are omitted."""
        paths = [tmp_path / "j1.json", tmp_path / "j2.json"]
        documents = [
            run_fault_matrix(
                smoke=True, jobs=jobs, output=path, with_perf=False
            )
            for jobs, path in zip((1, 2), paths)
        ]
        assert documents[0] == documents[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        document = json.loads(paths[0].read_text())
        assert document["schema"] == "duet-faults/1"
        assert document["all_guarded_invariants_held"] is True
        assert "perf" not in document and "history" not in document

    def test_root_seed_changes_cells(self, tmp_path):
        a = run_fault_matrix(smoke=True, root_seed=0, output=None, with_perf=False)
        b = run_fault_matrix(smoke=True, root_seed=1, output=None, with_perf=False)
        assert [c["seed"] for c in a["cells"]] != [c["seed"] for c in b["cells"]]
