"""Online guards: map checksums, weight scrubbing, consistency audits.

Three mechanisms, each mapped to the hardware it would occupy:

1. **Map integrity** (:class:`MapGuard`): the Speculator appends a
   per-channel CRC when it writes a switching map to the GLB; the Executor
   verifies it before consuming the map.  A failed channel falls back to
   *dense* (every bit forced to the fail-safe value): for an OMap that
   means "compute everything accurately", for an IMap "treat every input
   as nonzero" -- both directions preserve exact computed values and only
   cost cycles, which is the asymmetry the whole design leans on.

2. **Weight-memory scrubbing** (:class:`WeightMemoryScrubber`): weight
   rows carry a CRC from the moment they are loaded; a mismatch triggers a
   refetch of the row from the (host/DRAM) golden copy, like an ECC scrub.

3. **Consistency audit** (:class:`ConsistencyAuditor`): checksums cannot
   catch a Speculator that checksums its own wrong answers.  The audit
   samples a small fraction of outputs the map marked *insensitive* and
   has the Executor recompute them; a sample whose accurate result is
   sensitive after all is a *dangerous miss*.  The audited miss rate is
   the live estimate of the misspeculation rate that feeds the
   degradation policy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.validation import check_range

__all__ = [
    "map_checksum",
    "row_checksums",
    "MapGuard",
    "WeightMemoryScrubber",
    "ConsistencyAuditor",
    "AuditResult",
]


def row_checksums(values: np.ndarray) -> np.ndarray:
    """Per-row CRC32 of an integer array (RNN sensitive-count words).

    The leading axis indexes rows (time steps); a 1-D array is one row.
    """
    if np.asarray(values).ndim == 0:
        raise ValueError("cannot checksum a scalar")
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    if arr.ndim == 1:
        arr = arr[None]
    flat = arr.reshape(arr.shape[0], -1)
    return np.fromiter(
        (zlib.crc32(row.tobytes()) for row in flat),
        dtype=np.uint32,
        count=flat.shape[0],
    )


def map_checksum(bits: np.ndarray) -> np.ndarray:
    """Per-channel CRC32 of a binary map.

    The leading axis is the channel axis; a 1-D map (FC/RNN) is treated as
    a single channel.  Returns an array of ``uint32`` checksums.
    """
    if np.asarray(bits).ndim == 0:
        raise ValueError("cannot checksum a scalar map")
    arr = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8))
    if arr.ndim == 1:
        arr = arr[None]
    flat = arr.reshape(arr.shape[0], -1)
    return np.fromiter(
        (zlib.crc32(row.tobytes()) for row in flat),
        dtype=np.uint32,
        count=flat.shape[0],
    )


@dataclass
class MapGuard:
    """Checksum verification with fail-safe dense fallback.

    Attributes:
        fail_safe_value: the bit value a failed channel degrades to.  ``1``
            is fail-safe for both map kinds: an all-ones OMap computes
            every output accurately; an all-ones IMap skips nothing.
        checksum_failures: cumulative channels whose CRC mismatched.
        channels_checked: cumulative channels verified.
    """

    fail_safe_value: int = 1
    checksum_failures: int = 0
    channels_checked: int = 0

    def protect(self, bits: np.ndarray) -> np.ndarray:
        """Checksums as written alongside the map (producer side)."""
        return map_checksum(bits)

    def validate(
        self, bits: np.ndarray, checksums: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Verify a map against its checksums (consumer side).

        Returns:
            ``(usable map, failed channel count)`` -- failed channels are
            replaced wholesale by the fail-safe value; intact channels pass
            through untouched.
        """
        observed = map_checksum(bits)
        if observed.shape != np.asarray(checksums).shape:
            raise ValueError(
                f"checksum count {observed.shape} != protected {np.asarray(checksums).shape}"
            )
        bad = observed != checksums
        failures = int(bad.sum())
        self.channels_checked += int(observed.size)
        self.checksum_failures += failures
        if not failures:
            return bits, 0
        repaired = np.array(bits, copy=True)
        if repaired.ndim == 1:
            repaired[...] = self.fail_safe_value
        else:
            repaired[bad] = self.fail_safe_value
        return repaired, failures


@dataclass
class WeightMemoryScrubber:
    """Per-row CRC scrubbing of a weight tensor with golden refetch.

    ``protect`` is called when the clean weights are first loaded (the
    golden copy lives in host memory / DRAM); ``scrub`` verifies a
    possibly-corrupted on-chip copy and refetches any row whose CRC
    mismatches.

    Attributes:
        rows_refetched: cumulative rows recovered from the golden copy.
        rows_checked: cumulative rows verified.
    """

    rows_refetched: int = 0
    rows_checked: int = 0
    _golden: np.ndarray | None = field(default=None, repr=False)
    _sums: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def _row_sums(weights: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(
            np.asarray(weights, dtype=np.float64)
        ).reshape(weights.shape[0], -1)
        return np.fromiter(
            (zlib.crc32(row.tobytes()) for row in flat),
            dtype=np.uint32,
            count=flat.shape[0],
        )

    def protect(self, weights: np.ndarray) -> None:
        """Record the golden copy and its per-row checksums."""
        self._golden = np.array(weights, dtype=np.float64, copy=True)
        self._sums = self._row_sums(self._golden)

    def scrub(self, weights: np.ndarray) -> tuple[np.ndarray, int]:
        """Verify and repair an on-chip copy.

        Returns:
            ``(scrubbed weights, rows refetched)``.
        """
        if self._golden is None or self._sums is None:
            raise RuntimeError("scrub() before protect(): no golden copy")
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != self._golden.shape:
            raise ValueError(
                f"weight shape {arr.shape} != protected {self._golden.shape}"
            )
        observed = self._row_sums(arr)
        bad = observed != self._sums
        refetched = int(bad.sum())
        self.rows_checked += int(observed.size)
        self.rows_refetched += refetched
        if not refetched:
            return arr, 0
        repaired = np.array(arr, copy=True)
        repaired[bad] = self._golden[bad]
        return repaired, refetched


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one layer's sampled consistency audit.

    Attributes:
        samples: outputs recomputed by the Executor for the audit.
        misses: audited outputs that were dangerously misspeculated
            (marked insensitive, actually sensitive).
        miss_rate: ``misses / samples`` (0 when nothing was sampled).
    """

    samples: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.samples if self.samples else 0.0


@dataclass
class ConsistencyAuditor:
    """Sampled Speculator-vs-Executor agreement check.

    Attributes:
        sample_rate: fraction of *insensitive-marked* outputs the Executor
            recomputes per layer (audit work is billed to the guard, so the
            rate is kept small).
        seed: RNG seed for the sampling pattern.
        total_samples / total_misses: cumulative counters across layers.
    """

    sample_rate: float = 0.05
    seed: int = 0
    total_samples: int = 0
    total_misses: int = 0

    def __post_init__(self):
        check_range(self, "sample_rate", gt=0, le=1)

    def audit(
        self,
        true_map: np.ndarray,
        observed_map: np.ndarray,
        layer_index: int = 0,
    ) -> AuditResult:
        """Audit one layer's map against ground truth.

        ``true_map`` is what a fault-free Speculator would have produced
        (in hardware: the Executor's recomputation of the sampled outputs);
        ``observed_map`` is the map the pipeline is about to consume.
        Only outputs marked insensitive are audited -- a spurious 1 bit
        costs cycles, never correctness.
        """
        true_bits = np.asarray(true_map).reshape(-1)
        observed = np.asarray(observed_map).reshape(-1)
        if true_bits.shape != observed.shape:
            raise ValueError(
                f"map shapes differ: {true_bits.shape} vs {observed.shape}"
            )
        candidates = np.flatnonzero(observed == 0)
        if candidates.size == 0:
            return AuditResult(0, 0)
        rng = np.random.default_rng((self.seed, layer_index))
        n = max(1, int(round(self.sample_rate * candidates.size)))
        picked = rng.choice(candidates, size=min(n, candidates.size), replace=False)
        misses = int((true_bits[picked] == 1).sum())
        result = AuditResult(samples=int(picked.size), misses=misses)
        self.total_samples += result.samples
        self.total_misses += result.misses
        return result

    def audit_counts(
        self,
        true_counts: np.ndarray,
        observed_counts: np.ndarray,
        hidden_size: int,
    ) -> AuditResult:
        """RNN variant: audit per-(step, gate) sensitive-row counts.

        A deficit (observed < true) means truly-sensitive rows were marked
        insensitive -- each is a dangerous miss.  The audit samples the
        insensitive-marked row population at the configured rate; the
        expected sampled miss count is reported (the RNN path audits
        aggregate counts, not individual row indices).
        """
        true_arr = np.asarray(true_counts, dtype=np.int64)
        observed = np.asarray(observed_counts, dtype=np.int64)
        if true_arr.shape != observed.shape:
            raise ValueError(
                f"count shapes differ: {true_arr.shape} vs {observed.shape}"
            )
        deficit = int(np.clip(true_arr - observed, 0, None).sum())
        population = int(np.clip(hidden_size - observed, 0, None).sum())
        if population == 0:
            return AuditResult(0, 0)
        samples = max(1, int(round(self.sample_rate * population)))
        misses = min(samples, int(round(self.sample_rate * deficit)))
        result = AuditResult(samples=samples, misses=misses)
        self.total_samples += result.samples
        self.total_misses += result.misses
        return result

    @property
    def estimated_miss_rate(self) -> float:
        """Cumulative audited misspeculation-rate estimate."""
        return (
            self.total_misses / self.total_samples if self.total_samples else 0.0
        )
