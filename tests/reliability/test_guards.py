"""Tests for the online guards: checksums, scrubbing, consistency audit."""

import numpy as np
import pytest

from repro.reliability.guards import (
    ConsistencyAuditor,
    MapGuard,
    WeightMemoryScrubber,
    map_checksum,
    row_checksums,
)


class TestMapChecksum:
    def test_per_channel(self):
        bits = np.zeros((4, 8, 8), dtype=np.int64)
        sums = map_checksum(bits)
        assert sums.shape == (4,)

    def test_any_flip_changes_the_channel_sum(self, rng):
        bits = (rng.random((4, 8, 8)) < 0.5).astype(np.int64)
        sums = map_checksum(bits)
        flipped = bits.copy()
        flipped[2, 3, 3] ^= 1
        changed = map_checksum(flipped)
        assert changed[2] != sums[2]
        np.testing.assert_array_equal(changed[[0, 1, 3]], sums[[0, 1, 3]])

    def test_one_dimensional_map_is_one_channel(self):
        assert map_checksum(np.ones(100, dtype=np.int64)).shape == (1,)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            map_checksum(np.int64(1))

    def test_row_checksums_detect_count_edits(self):
        counts = np.arange(12, dtype=np.int64).reshape(3, 4)
        sums = row_checksums(counts)
        edited = counts.copy()
        edited[1, 2] += 1
        assert (row_checksums(edited) != sums).tolist() == [False, True, False]


class TestMapGuard:
    def test_intact_map_passes_untouched(self, rng):
        guard = MapGuard()
        bits = (rng.random((4, 6, 6)) < 0.5).astype(np.int64)
        sums = guard.protect(bits)
        out, failures = guard.validate(bits, sums)
        assert failures == 0
        np.testing.assert_array_equal(out, bits)

    def test_corrupted_channel_degrades_to_dense(self, rng):
        guard = MapGuard()
        bits = (rng.random((4, 6, 6)) < 0.5).astype(np.int64)
        sums = guard.protect(bits)
        corrupted = bits.copy()
        corrupted[1, 0, 0] ^= 1
        out, failures = guard.validate(corrupted, sums)
        assert failures == 1
        # the failed channel is forced fail-safe dense (all ones) ...
        assert (out[1] == 1).all()
        # ... and intact channels are untouched
        np.testing.assert_array_equal(out[[0, 2, 3]], bits[[0, 2, 3]])

    def test_counters_accumulate(self, rng):
        guard = MapGuard()
        bits = (rng.random((4, 6, 6)) < 0.5).astype(np.int64)
        sums = guard.protect(bits)
        guard.validate(bits, sums)
        corrupted = bits.copy()
        corrupted[0] ^= 1
        guard.validate(corrupted, sums)
        assert guard.channels_checked == 8
        assert guard.checksum_failures == 1

    def test_checksum_count_mismatch_rejected(self, rng):
        guard = MapGuard()
        bits = (rng.random((4, 6, 6)) < 0.5).astype(np.int64)
        sums = guard.protect(bits)
        with pytest.raises(ValueError, match="checksum count"):
            guard.validate(bits[:2], sums)


class TestWeightMemoryScrubber:
    def test_scrub_restores_golden_rows_exactly(self, rng):
        scrubber = WeightMemoryScrubber()
        weights = rng.normal(size=(16, 27))
        scrubber.protect(weights)
        corrupted = weights.copy()
        corrupted[3, 5] += 100.0
        corrupted[9, 0] -= 7.0
        repaired, refetched = scrubber.scrub(corrupted)
        assert refetched == 2
        np.testing.assert_array_equal(repaired, weights)

    def test_clean_copy_costs_nothing(self, rng):
        scrubber = WeightMemoryScrubber()
        weights = rng.normal(size=(8, 9))
        scrubber.protect(weights)
        _, refetched = scrubber.scrub(weights.copy())
        assert refetched == 0

    def test_scrub_before_protect_rejected(self, rng):
        with pytest.raises(RuntimeError, match="protect"):
            WeightMemoryScrubber().scrub(rng.normal(size=(4, 4)))

    def test_shape_mismatch_rejected(self, rng):
        scrubber = WeightMemoryScrubber()
        scrubber.protect(rng.normal(size=(4, 4)))
        with pytest.raises(ValueError, match="shape"):
            scrubber.scrub(rng.normal(size=(5, 4)))


class TestConsistencyAuditor:
    def test_detects_dangerous_misses(self):
        """Bits dropped from a dense map are all dangerous; a generous
        sample rate must surface some of them."""
        true_map = np.ones(1000, dtype=np.int64)
        observed = true_map.copy()
        observed[:100] = 0
        auditor = ConsistencyAuditor(sample_rate=0.5, seed=0)
        result = auditor.audit(true_map, observed, layer_index=0)
        assert result.samples == 50
        assert result.misses == 50  # every insensitive mark is a lie
        assert result.miss_rate == 1.0

    def test_clean_map_audits_clean(self, rng):
        bits = (rng.random(500) < 0.4).astype(np.int64)
        auditor = ConsistencyAuditor(sample_rate=0.2, seed=0)
        result = auditor.audit(bits, bits, layer_index=0)
        assert result.misses == 0

    def test_no_insensitive_positions_no_samples(self):
        dense = np.ones(64, dtype=np.int64)
        result = ConsistencyAuditor(seed=0).audit(dense, dense)
        assert result.samples == 0
        assert result.miss_rate == 0.0

    def test_sampling_is_deterministic(self, rng):
        true_map = (rng.random(400) < 0.5).astype(np.int64)
        observed = (rng.random(400) < 0.5).astype(np.int64)
        a = ConsistencyAuditor(sample_rate=0.1, seed=7).audit(true_map, observed, 3)
        b = ConsistencyAuditor(sample_rate=0.1, seed=7).audit(true_map, observed, 3)
        assert (a.samples, a.misses) == (b.samples, b.misses)

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError, match="sample_rate"):
            ConsistencyAuditor(sample_rate=0.0)

    def test_cumulative_estimate(self):
        auditor = ConsistencyAuditor(sample_rate=0.5, seed=0)
        dense = np.ones(100, dtype=np.int64)
        dropped = dense.copy()
        dropped[:20] = 0
        auditor.audit(dense, dropped, 0)
        auditor.audit(dense, dense, 1)
        assert 0.0 < auditor.estimated_miss_rate <= 1.0

    def test_audit_counts_sees_deficit(self):
        true_counts = np.full((5, 4), 100, dtype=np.int64)
        observed = true_counts - 40  # 40 sensitive rows hidden per gate
        result = ConsistencyAuditor(sample_rate=0.1, seed=0).audit_counts(
            true_counts, observed, hidden_size=128
        )
        assert result.samples > 0
        assert result.misses > 0

    def test_audit_counts_clean(self):
        counts = np.full((5, 4), 60, dtype=np.int64)
        result = ConsistencyAuditor(sample_rate=0.1, seed=0).audit_counts(
            counts, counts, hidden_size=128
        )
        assert result.misses == 0
