"""Composable, seeded fault models and the campaign registry.

Every fault model answers one question: *what does this physical failure
do to the data the dual-module pipeline consumes?*  The taxonomy follows
the paper's correctness contract (Section III-C): switching maps and the
Speculator may be wrong -- that costs accuracy -- but the Executor's
computed values and the pipeline's forward progress are sacrosanct.

Fault sites
-----------

- ``omap`` / ``imap``  -- bit flips in the switching / input-sparsity maps
  while they sit in the GLB or cross the NoC (transport faults, injected
  *after* the Speculator writes its checksum, so map guards can see them).
- ``speculator``       -- a systematic datapath bias inside the Speculator
  (miscalibrated quantizer, stuck adder-tree bit).  Injected *before* the
  checksum: the map is internally consistent and only the sampled
  Speculator-vs-Executor audit can detect the damage.
- ``weights``          -- corrupted words in the weight memory.
- ``dram``             -- transient transfer failures on the off-chip
  channel (retried with backoff by :class:`repro.sim.dram.Dram`).
- ``pe_row``           -- stuck-at PE rows in the Executor array.

All randomness derives from ``numpy`` generators seeded per
``(campaign seed, layer index, site)``, so a campaign is a pure function
of its seed -- the CLI report is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.validation import check_range

__all__ = [
    "FaultModel",
    "OMapBitFlips",
    "IMapBitFlips",
    "WeightCorruption",
    "DramTransferFaults",
    "StuckAtRows",
    "BiasedSpeculator",
    "DramFaultStream",
    "FaultCampaign",
    "FaultInjector",
    "CAMPAIGNS",
    "get_campaign",
]


@dataclass(frozen=True)
class FaultModel:
    """Base class: one physical failure mode with its intensity knobs.

    Attributes:
        site: which interface the fault corrupts (see module docstring).
    """

    site = "abstract"


@dataclass(frozen=True)
class OMapBitFlips(FaultModel):
    """Flip each OMap bit independently with probability ``rate``."""

    rate: float = 0.01
    site = "omap"

    def __post_init__(self):
        check_range(self, "rate", ge=0, le=1)

    def corrupt(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flips = rng.random(bits.shape) < self.rate
        return np.where(flips, 1 - bits, bits).astype(bits.dtype)


@dataclass(frozen=True)
class IMapBitFlips(FaultModel):
    """Flip each IMap bit independently with probability ``rate``.

    Unlike OMap flips, a 1->0 IMap flip is *value-corrupting* when input
    switching is enabled: a genuinely nonzero input is treated as zero and
    a needed MAC is skipped.  This is the fault class the map guards exist
    for.
    """

    rate: float = 0.01
    site = "imap"

    def __post_init__(self):
        check_range(self, "rate", ge=0, le=1)

    def corrupt(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flips = rng.random(bits.shape) < self.rate
        return np.where(flips, 1 - bits, bits).astype(bits.dtype)


@dataclass(frozen=True)
class WeightCorruption(FaultModel):
    """Corrupt each weight word independently with probability ``rate``.

    A corrupted word has a high-order bit flipped, modelled as adding
    ``magnitude`` times the tensor's absolute scale -- large enough that an
    unguarded run visibly corrupts outputs, which is what the invariant
    tests must observe.
    """

    rate: float = 1e-3
    magnitude: float = 4.0
    site = "weights"

    def __post_init__(self):
        check_range(self, "rate", ge=0, le=1)
        check_range(self, "magnitude", gt=0)

    def corrupt(
        self, weights: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        """Return ``(corrupted copy, number of corrupted words)``."""
        hits = rng.random(weights.shape) < self.rate
        if not hits.any():
            return weights.copy(), 0
        scale = float(np.abs(weights).max()) or 1.0
        signs = rng.choice((-1.0, 1.0), size=weights.shape)
        corrupted = np.where(
            hits, weights + signs * self.magnitude * scale, weights
        )
        return corrupted, int(hits.sum())


@dataclass(frozen=True)
class DramTransferFaults(FaultModel):
    """Each DRAM transfer attempt fails independently with ``rate``."""

    rate: float = 0.02
    site = "dram"

    def __post_init__(self):
        check_range(self, "rate", ge=0, lt=1)


@dataclass(frozen=True)
class StuckAtRows(FaultModel):
    """``count`` Executor PE rows are stuck (accumulators read zero)."""

    count: int = 1
    site = "pe_row"

    def __post_init__(self):
        check_range(self, "count", ge=0)

    def pick_rows(self, total_rows: int, rng: np.random.Generator) -> frozenset[int]:
        count = min(self.count, max(0, total_rows - 1))  # keep one row alive
        if count == 0:
            return frozenset()
        return frozenset(
            int(r) for r in rng.choice(total_rows, size=count, replace=False)
        )


@dataclass(frozen=True)
class BiasedSpeculator(FaultModel):
    """Systematic bias of the Speculator datapath.

    ``bias`` shifts every approximate pre-activation; in map space a
    positive ReLU bias *under-speculates* -- truly-sensitive neurons near
    the threshold are marked insensitive and silently approximated.  The
    map-level model drops each sensitive bit with probability
    ``miss_rate``, reduced by the guard band (borderline neurons the band
    re-captures): ``miss_rate * bias / (bias + guard_band)``.
    """

    bias: float = 0.1
    miss_rate: float = 0.08
    site = "speculator"

    def __post_init__(self):
        check_range(self, "bias", ge=0)
        check_range(self, "miss_rate", ge=0, le=1)

    def effective_miss_rate(self, guard_band: float) -> float:
        """Miss probability after the guard band absorbs borderline errors."""
        if self.bias == 0:
            return 0.0
        return self.miss_rate * self.bias / (self.bias + guard_band)

    def corrupt(
        self, bits: np.ndarray, rng: np.random.Generator, guard_band: float = 0.0
    ) -> np.ndarray:
        """Drop sensitive bits at the effective miss rate."""
        rate = self.effective_miss_rate(guard_band)
        drops = (rng.random(bits.shape) < rate) & (bits > 0)
        return np.where(drops, 0, bits).astype(bits.dtype)


class DramFaultStream:
    """Buffered Bernoulli attempt stream for one flaky DRAM channel.

    Both execution paths of :class:`repro.sim.dram.Dram` consume this
    one object, and both see the *same* underlying uniform stream:

    - the per-event path calls :meth:`fails` once per transfer attempt;
    - the vectorized path calls :meth:`failures` once per batch and gets
      every transfer's leading-failure count in one shot.

    Bit-identity rests on a numpy guarantee: ``Generator.random(n)``
    yields the same doubles as ``n`` sequential ``Generator.random()``
    calls, so pre-drawing uniform blocks and slicing them preserves the
    draw sequence no matter how consumption is batched.  A transfer with
    ``f`` leading failed attempts consumes ``min(f, R) + 1`` draws
    (its failures plus the success draw) unless it exhausts all
    ``R + 1`` attempts, which consumes exactly ``R + 1`` -- the same
    accounting :meth:`repro.sim.dram.Dram.read` performs one
    ``random()`` at a time.
    """

    #: uniform draws fetched per refill; any block size yields the same
    #: logical stream, this just amortises generator call overhead.
    BLOCK = 4096

    def __init__(self, rng: np.random.Generator, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"failure rate must be in [0, 1), got {rate}")
        self.rng = rng
        self.rate = rate
        self._buffer = np.empty(0, dtype=np.float64)
        self._pos = 0

    def _ensure(self, n: int) -> np.ndarray:
        """A view of >= ``n`` buffered draws starting at the cursor."""
        available = len(self._buffer) - self._pos
        if available < n:
            fresh = self.rng.random(max(n - available, self.BLOCK))
            self._buffer = np.concatenate(
                (self._buffer[self._pos:], fresh)
            )
            self._pos = 0
        return self._buffer[self._pos:]

    def fails(self) -> bool:
        """Per-event draw: does the next transfer attempt fail?"""
        draw = self._ensure(1)[0]
        self._pos += 1
        return bool(draw < self.rate)

    def failures(self, n_transfers: int, max_retries: int) -> np.ndarray:
        """Leading-failure counts for the next ``n_transfers`` transfers.

        Returns an int64 array ``f`` with ``f[i]`` in ``[0, R + 1]``:
        ``f[i] <= R`` means transfer ``i`` succeeded after ``f[i]``
        retried attempts; ``f[i] == R + 1`` means it exhausted every
        attempt (unrecoverable).  Consumes exactly the draws the
        per-event path would have.
        """
        if n_transfers < 0:
            raise ValueError(f"n_transfers must be non-negative, got {n_transfers}")
        cap = max_retries + 1
        out = np.empty(n_transfers, dtype=np.int64)
        done = 0
        while done < n_transfers:
            remaining = n_transfers - done
            # enough for `remaining` all-success transfers, and always
            # enough to finish at least one transfer (progress bound)
            view = self._ensure(max(remaining, cap))
            succ = view >= self.rate
            if bool(succ[:remaining].all()):
                # common case, fully vectorized: every transfer's first
                # attempt succeeds and consumes exactly one draw
                out[done:] = 0
                self._pos += remaining
                return out
            # failures since the last success, *before* each draw
            idx = np.arange(len(view))
            last_succ = np.maximum.accumulate(np.where(succ, idx, -1))
            prev_succ = np.concatenate(([-1], last_succ[:-1]))
            prefail = idx - prev_succ - 1
            # a draw terminates a transfer iff it succeeds (f = leading
            # failures mod cap) or it is the cap-th consecutive failure
            # counted from the transfer's start (f = cap, exhausted)
            exhausted = ~succ & (prefail % cap == cap - 1)
            terminal = succ | exhausted
            term_pos = np.flatnonzero(terminal)
            take = min(remaining, len(term_pos))
            f_vals = np.where(
                exhausted[term_pos[:take]], cap, prefail[term_pos[:take]] % cap
            )
            out[done : done + take] = f_vals
            done += take
            # draws past the last emitted terminal belong to the next,
            # still-incomplete transfer: leave them buffered
            self._pos += int(term_pos[take - 1]) + 1
        return out


@dataclass(frozen=True)
class FaultCampaign:
    """A named, composable set of fault models applied together."""

    name: str
    description: str
    faults: tuple[FaultModel, ...] = ()

    def by_site(self, site: str) -> list[FaultModel]:
        """All fault models targeting ``site``."""
        return [f for f in self.faults if f.site == site]


#: Built-in campaigns, mild to severe.  ``smoke`` is the CI campaign: one
#: fault per site at rates low enough to finish fast but high enough that
#: every guard fires at least once on a paper-scale model.
CAMPAIGNS: dict[str, FaultCampaign] = {
    c.name: c
    for c in (
        FaultCampaign("none", "no faults (clean reference run)"),
        FaultCampaign(
            "smoke",
            "one mild fault per site -- the CI smoke campaign",
            (
                # map rates are per bit; a CONV1-sized channel holds ~1e4
                # bits, so 1e-5 keeps the per-channel CRC failure odds
                # around 10% -- every guard fires, no budget blows
                OMapBitFlips(rate=1e-5),
                IMapBitFlips(rate=1e-5),
                WeightCorruption(rate=1e-4),
                DramTransferFaults(rate=0.01),
                StuckAtRows(count=1),
                BiasedSpeculator(bias=0.05, miss_rate=0.02),
            ),
        ),
        FaultCampaign(
            "omap-flips",
            "transport bit flips in the switching maps",
            (OMapBitFlips(rate=0.05), IMapBitFlips(rate=0.05)),
        ),
        FaultCampaign(
            "dram-flaky",
            "transient off-chip transfer failures",
            (DramTransferFaults(rate=0.15),),
        ),
        FaultCampaign(
            "speculator-bias",
            "systematically biased Speculator datapath",
            (BiasedSpeculator(bias=0.5, miss_rate=0.3),),
        ),
        FaultCampaign(
            "stuck-pe",
            "stuck-at Executor PE rows",
            (StuckAtRows(count=3),),
        ),
        FaultCampaign(
            "weight-mem",
            "corrupted weight-memory words",
            (WeightCorruption(rate=0.01, magnitude=8.0),),
        ),
        FaultCampaign(
            "severe",
            "everything at once, hard enough to force degradation to BASE",
            (
                OMapBitFlips(rate=0.2),
                IMapBitFlips(rate=0.2),
                WeightCorruption(rate=0.02, magnitude=8.0),
                DramTransferFaults(rate=0.4),
                StuckAtRows(count=4),
                BiasedSpeculator(bias=1.0, miss_rate=0.5),
            ),
        ),
    )
}


def get_campaign(name: str) -> FaultCampaign:
    """Look up a built-in campaign by name.

    Raises:
        ValueError: naming the unknown campaign and the valid choices.
    """
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault campaign {name!r}; expected one of "
            f"{sorted(CAMPAIGNS)}"
        ) from None


@dataclass
class FaultInjector:
    """Applies a campaign's faults deterministically, site by site.

    One injector serves one simulated run.  Per-layer random streams are
    derived from ``(seed, layer index, site)``, so injecting into layer 7
    never perturbs what layer 8 sees -- campaigns compose and tests can
    bisect.

    Attributes:
        campaign: the fault set to apply.
        seed: base seed of every derived stream.
        injected: cumulative count of injected faults per site.
    """

    campaign: FaultCampaign
    seed: int = 0
    injected: dict[str, int] = field(default_factory=dict)

    _SITE_STREAMS = {
        "omap": 1,
        "imap": 2,
        "weights": 3,
        "dram": 4,
        "pe_row": 5,
        "speculator": 6,
    }

    def _rng(self, layer_index: int, site: str) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed, layer_index, self._SITE_STREAMS[site])
        )

    def _count(self, site: str, n: int) -> None:
        if n:
            self.injected[site] = self.injected.get(site, 0) + int(n)

    # -- map faults ---------------------------------------------------------

    def speculate_omap(
        self, omap: np.ndarray, layer_index: int, guard_band: float = 0.0
    ) -> np.ndarray:
        """The OMap as the (possibly biased) Speculator produces it.

        Applied before any checksum is computed -- a biased Speculator
        checksums its own wrong map.
        """
        result = omap
        for fault in self.campaign.by_site("speculator"):
            rng = self._rng(layer_index, "speculator")
            corrupted = fault.corrupt(result, rng, guard_band=guard_band)
            self._count("speculator", int((corrupted != result).sum()))
            result = corrupted
        return result

    def corrupt_omap(self, omap: np.ndarray, layer_index: int) -> np.ndarray:
        """Transport bit flips after the map was checksummed."""
        result = omap
        for fault in self.campaign.by_site("omap"):
            rng = self._rng(layer_index, "omap")
            corrupted = fault.corrupt(result, rng)
            self._count("omap", int((corrupted != result).sum()))
            result = corrupted
        return result

    def corrupt_imap(self, imap: np.ndarray, layer_index: int) -> np.ndarray:
        """Transport bit flips in the input-sparsity map."""
        result = imap
        for fault in self.campaign.by_site("imap"):
            rng = self._rng(layer_index, "imap")
            corrupted = fault.corrupt(result, rng)
            self._count("imap", int((corrupted != result).sum()))
            result = corrupted
        return result

    def speculate_rnn_counts(
        self, counts: np.ndarray, layer_index: int, guard_band: float = 0.0
    ) -> np.ndarray:
        """Sensitive counts as the (possibly biased) Speculator reports
        them -- bias drops sensitive rows before any checksum exists."""
        result = counts.astype(np.int64)
        for fault in self.campaign.by_site("speculator"):
            rng = self._rng(layer_index, "speculator")
            rate = fault.effective_miss_rate(guard_band)
            dropped = rng.binomial(result.clip(min=0), rate)
            self._count("speculator", int(dropped.sum()))
            result = result - dropped
        return result

    def corrupt_rnn_counts(
        self, counts: np.ndarray, hidden_size: int, layer_index: int
    ) -> np.ndarray:
        """Transport faults in the count words after they were
        checksummed.  Results clamp to ``[0, hidden_size]`` -- the hardware
        registers cannot hold more."""
        result = counts.astype(np.int64)
        for fault in self.campaign.by_site("omap"):
            rng = self._rng(layer_index, "omap")
            flips = rng.binomial(hidden_size, fault.rate, size=result.shape)
            signs = rng.choice((-1, 1), size=result.shape)
            self._count("omap", int(flips.sum()))
            result = result + signs * flips
        return result.clip(0, hidden_size)

    # -- memory / datapath faults -------------------------------------------

    def corrupt_weights(
        self, weights: np.ndarray, layer_index: int
    ) -> np.ndarray:
        """Corrupted copy of a weight tensor."""
        result = np.asarray(weights, dtype=np.float64)
        for fault in self.campaign.by_site("weights"):
            rng = self._rng(layer_index, "weights")
            result, n = fault.corrupt(result, rng)
            self._count("weights", n)
        return result

    def weight_fault_count(self, weight_elements: int, layer_index: int) -> int:
        """Corrupted words in a weight tensor of ``weight_elements`` words.

        The analytical pipelines never materialise trained weights, so the
        weight-memory site is accounted by count: a binomial draw from the
        same ``(seed, layer, site)`` stream :meth:`corrupt_weights` uses on
        real tensors.
        """
        count = 0
        for fault in self.campaign.by_site("weights"):
            rng = self._rng(layer_index, "weights")
            count += int(rng.binomial(weight_elements, fault.rate))
        self._count("weights", count)
        return count

    def stuck_rows(self, total_rows: int, layer_index: int = 0) -> frozenset[int]:
        """Stuck PE rows for this run (stable across layers: silicon faults
        do not move)."""
        rows: set[int] = set()
        for fault in self.campaign.by_site("pe_row"):
            rng = self._rng(layer_index, "pe_row")
            picked = fault.pick_rows(total_rows, rng)
            self._count("pe_row", len(picked - rows))
            rows |= picked
        return frozenset(rows)

    def dram_fault_stream(self, stream: int = 0) -> DramFaultStream | None:
        """The campaign's DRAM channel faults as a :class:`DramFaultStream`.

        Draws from the ``(seed, stream, "dram")`` generator at the
        highest DRAM fault rate of the campaign; None when the campaign
        has no DRAM faults.  Failed attempts are *not* tallied in
        :attr:`injected` -- the :class:`repro.sim.dram.Dram` counters are
        authoritative for the channel (the reliability context folds them
        into its per-layer records), and counting in both places would
        double-bill.
        """
        faults = self.campaign.by_site("dram")
        if not faults:
            return None
        return DramFaultStream(
            self._rng(stream, "dram"), max(f.rate for f in faults)
        )

    @property
    def total_injected(self) -> int:
        """All faults injected so far, across sites."""
        return sum(self.injected.values())
