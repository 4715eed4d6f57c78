"""Tests for the DRAM and NoC models."""

import pytest

from repro.sim.dram import Dram, TransferRetryPolicy, shared_channel_cycles
from repro.sim.noc import MulticastNoc, interchip_transfer_cycles


class TestDram:
    def test_read_returns_cycles(self):
        dram = Dram(bandwidth=32)
        assert dram.read(64) == 2

    def test_write(self):
        dram = Dram(bandwidth=32)
        assert dram.write(33) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Dram(0)
        with pytest.raises(ValueError, match="negative"):
            Dram(16).read(-5)


class _ScriptedFaults:
    """A fault stream whose attempts fail as scripted (then succeed)."""

    def __init__(self, *outcomes: bool, forever: bool = False):
        self.outcomes = list(outcomes)
        self.forever = forever

    def fails(self) -> bool:
        return self.outcomes.pop(0) if self.outcomes else self.forever


class TestDramRetry:
    def test_no_fault_model_means_no_retries(self):
        dram = Dram(32)
        dram.read(64)
        assert dram.retries == 0
        assert dram.failed_transfers == 0
        assert dram.unrecoverable_transfers == 0

    def test_transient_failure_retries_with_backoff(self):
        """First attempt fails, second succeeds: one retry, and the cycle
        count carries the base transfer, the wait, and the re-transfer."""
        policy = TransferRetryPolicy(max_retries=3, backoff_cycles=8)
        dram = Dram(32, retry_policy=policy, fault_stream=_ScriptedFaults(True))
        cycles = dram.read(64)
        base = 2  # 64 bytes / 32 per cycle
        assert dram.retries == 1
        assert dram.failed_transfers == 1
        assert dram.unrecoverable_transfers == 0
        assert cycles == base + policy.wait_before(0) + base

    def test_backoff_is_exponential(self):
        policy = TransferRetryPolicy(max_retries=4, backoff_cycles=8)
        assert [policy.wait_before(i) for i in range(4)] == [8, 16, 32, 64]

    def test_unrecoverable_after_max_retries(self):
        policy = TransferRetryPolicy(max_retries=2, backoff_cycles=1)
        dram = Dram(
            32, retry_policy=policy, fault_stream=_ScriptedFaults(forever=True)
        )
        dram.write(64)
        assert dram.retries == 2
        assert dram.failed_transfers == 3  # initial + 2 retries
        assert dram.unrecoverable_transfers == 1


class TestMulticastNoc:
    def test_unicast(self):
        noc = MulticastNoc(rows=16, cols=16)
        cycles = noc.deliver(10, target_rows={3}, target_cols={5})
        assert cycles == 10
        assert noc.stats.y_bus_transactions == 10
        assert noc.stats.x_bus_transactions == 10
        assert noc.stats.receivers_activated == 10

    def test_multicast_counts(self):
        noc = MulticastNoc(rows=16, cols=16)
        noc.deliver(4, target_rows={0, 1}, target_cols={0, 1, 2})
        assert noc.stats.x_bus_transactions == 8  # 4 words x 2 rows
        assert noc.stats.receivers_activated == 24  # x 3 cols
        assert noc.stats.receivers_deactivated == 4 * 2 * 13

    def test_speculator_row_allowed(self):
        """The 17th X-bus (row index == rows) feeds the Speculator."""
        noc = MulticastNoc(rows=16, cols=16)
        noc.deliver(1, target_rows={16}, target_cols={0})
        assert noc.stats.x_bus_transactions == 1

    def test_out_of_range_targets(self):
        noc = MulticastNoc(rows=16, cols=16)
        with pytest.raises(ValueError, match="row"):
            noc.deliver(1, {17}, {0})
        with pytest.raises(ValueError, match="col"):
            noc.deliver(1, {0}, {16})

    def test_reset(self):
        noc = MulticastNoc(4, 4)
        noc.deliver(5, {0}, {0})
        noc.reset()
        assert noc.stats.y_bus_transactions == 0

    def test_broadcast_energy_saving_signal(self):
        """ID matching deactivates unmatched receivers: the deactivated
        count (energy saved) plus activated count covers the array."""
        noc = MulticastNoc(rows=8, cols=8)
        noc.deliver(1, target_rows={0, 1, 2}, target_cols={0})
        total = noc.stats.receivers_activated + noc.stats.receivers_deactivated
        assert total == 3 * 8  # matched rows x all cols


class TestSharedChannelCycles:
    def test_solo_matches_plain_bandwidth_model(self):
        assert shared_channel_cycles(1024, bandwidth=32) == Dram(32).cycles_for(1024)

    def test_contention_scales_with_chips(self):
        solo = shared_channel_cycles(1024, bandwidth=32)
        assert shared_channel_cycles(1024, bandwidth=32, chips=4) == 4 * solo

    def test_monotone_in_chips(self):
        cycles = [
            shared_channel_cycles(1000, bandwidth=32, chips=k)
            for k in range(1, 6)
        ]
        assert cycles == sorted(cycles)

    def test_zero_bytes_free(self):
        assert shared_channel_cycles(0, bandwidth=32, chips=8) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_bytes=-1, bandwidth=32),
            dict(num_bytes=1, bandwidth=0),
            dict(num_bytes=1, bandwidth=32, chips=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            shared_channel_cycles(**kwargs)


class TestInterchipTransferCycles:
    def test_ceil_at_link_bandwidth(self):
        assert interchip_transfer_cycles(33, link_bandwidth=32) == 2

    def test_fair_time_slicing_among_sharers(self):
        solo = interchip_transfer_cycles(4096, link_bandwidth=32)
        assert interchip_transfer_cycles(4096, 32, sharers=3) == 3 * solo

    def test_zero_bytes_free(self):
        assert interchip_transfer_cycles(0, link_bandwidth=32, sharers=4) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_bytes=-1, link_bandwidth=32),
            dict(num_bytes=1, link_bandwidth=0),
            dict(num_bytes=1, link_bandwidth=32, sharers=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            interchip_transfer_cycles(**kwargs)
