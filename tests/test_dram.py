"""Unit tests for the DRAM timing model."""

import pytest

from repro.errors import ConfigError
from repro.memory.dram import (
    BLOCKS_PER_ROW,
    CHANNEL_SERVICE_CYCLES,
    ROW_CONFLICT_CYCLES,
    ROW_CLOSED_CYCLES,
    ROW_HIT_CYCLES,
    DramModel,
)


class TestDramMapping:
    def test_same_row_same_bank(self):
        dram = DramModel()
        assert dram._map(0) == dram._map(BLOCKS_PER_ROW - 1)

    def test_adjacent_rows_different_channels(self):
        dram = DramModel(num_channels=8)
        channel_a = dram._map(0)[0]
        channel_b = dram._map(BLOCKS_PER_ROW)[0]
        assert channel_a != channel_b

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            DramModel(num_channels=0)

    def test_access_tracks_open_rows_per_mapped_bank(self):
        # access() inlines _map: a row hit must mean the same (channel,
        # bank) last opened the same row.
        dram = DramModel(num_channels=4, banks_per_channel=2)
        open_rows = {}
        for step in range(500):
            addr = step * 7919 % (BLOCKS_PER_ROW * 4 * 2 * 6)
            channel, bank, row = dram._map(addr)
            hits = dram.row_hits
            dram.access(addr, now=step * 1_000)
            assert (dram.row_hits > hits) == (open_rows.get((channel, bank)) == row)
            open_rows[(channel, bank)] = row


class TestDramTiming:
    def test_first_access_is_closed_row(self):
        dram = DramModel()
        assert dram.access(0, now=0) == ROW_CLOSED_CYCLES

    def test_second_access_same_row_hits(self):
        dram = DramModel()
        dram.access(0, now=0)
        latency = dram.access(1, now=10_000)
        assert latency == ROW_HIT_CYCLES

    def test_row_conflict_costs_most(self):
        dram = DramModel(num_channels=1, banks_per_channel=1)
        dram.access(0, now=0)
        latency = dram.access(BLOCKS_PER_ROW, now=10_000)
        assert latency == ROW_CONFLICT_CYCLES

    def test_queueing_delay_under_back_to_back_requests(self):
        dram = DramModel(num_channels=1)
        first = dram.access(0, now=0)
        second = dram.access(1, now=0)  # same instant: must queue
        assert second == first - ROW_CLOSED_CYCLES + ROW_HIT_CYCLES + CHANNEL_SERVICE_CYCLES

    def test_no_queueing_when_spread_out(self):
        dram = DramModel(num_channels=1)
        dram.access(0, now=0)
        assert dram.access(1, now=1_000_000) == ROW_HIT_CYCLES


class TestDramCounters:
    def test_read_write_counts(self):
        dram = DramModel()
        dram.access(0, 0, is_write=False)
        dram.access(1, 0, is_write=True)
        assert (dram.reads, dram.writes, dram.accesses) == (1, 1, 2)

    def test_row_hit_rate(self):
        dram = DramModel()
        dram.access(0, 0)
        dram.access(1, 0)
        dram.access(2, 0)
        assert dram.row_hit_rate() == pytest.approx(2 / 3)

    def test_row_hit_rate_empty(self):
        assert DramModel().row_hit_rate() == 0.0
