"""Simplified DDR3 open-page DRAM timing model.

The paper models memory with DRAMSim2 (eight single-channel DDR3-2133
controllers, 12-12-12, eight banks per rank, 1 KB rows, open-page policy,
FR-FCFS scheduling). A full cycle-accurate DRAM model is unnecessary for
reproducing the paper's results — DRAM latency is an additive term on LLC
misses that is identical across coherence-tracking schemes — so this model
keeps the pieces that shape that term:

* channel/bank address interleaving,
* per-bank open-row state (row hit vs. row conflict latency),
* a per-channel "next free" clock approximating queueing delay under the
  channel's service rate.

All latencies are expressed in 2 GHz core cycles. With tCK = 0.9375 ns and
12-12-12 timings: CAS = 11.25 ns (~23 cycles), RCD+CAS = 22.5 ns
(~45 cycles), RP+RCD+CAS = 33.75 ns (~68 cycles), plus 3.75 ns (~8 cycles)
of BL8 data transfer.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Row-buffer hit latency in core cycles (CAS + burst).
ROW_HIT_CYCLES = 31

#: Closed-row (first access after precharge) latency in core cycles.
ROW_CLOSED_CYCLES = 53

#: Row-buffer conflict latency in core cycles (precharge + activate + CAS).
ROW_CONFLICT_CYCLES = 76

#: Minimum service interval per request per channel, in core cycles.
#: A 64-byte burst occupies the DDR3-2133 data bus for ~3.75 ns.
CHANNEL_SERVICE_CYCLES = 8

#: Blocks per 1 KB DRAM row.
BLOCKS_PER_ROW = 16


class DramModel:
    """Multi-channel open-page DRAM with per-bank row-buffer tracking."""

    def __init__(self, num_channels: int = 8, banks_per_channel: int = 8) -> None:
        if num_channels <= 0 or banks_per_channel <= 0:
            raise ConfigError("DRAM channels and banks must be positive")
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self._num_banks = num_channels * banks_per_channel
        #: Open row per bank, keyed by ``bank * num_channels + channel``.
        self._open_row = {}
        self._channel_free_at = [0] * num_channels
        self.reads = 0
        self.writes = 0
        self.row_hits = 0

    def _map(self, block_addr: int) -> "tuple[int, int, int]":
        """Map a block address to (channel, bank, row).

        :meth:`access` inlines this mapping: ``row_id % (channels *
        banks)`` is ``bank * channels + channel``, one int per bank.
        """
        row_id = block_addr // BLOCKS_PER_ROW
        channel = row_id % self.num_channels
        bank = (row_id // self.num_channels) % self.banks_per_channel
        row = row_id // (self.num_channels * self.banks_per_channel)
        return channel, bank, row

    def access(self, block_addr: int, now: int, is_write: bool = False) -> int:
        """Serve one block request issued at cycle ``now``.

        Returns the access latency in core cycles, including any queueing
        delay behind earlier requests on the same channel.
        """
        row_id = block_addr // BLOCKS_PER_ROW
        num_banks = self._num_banks
        key = row_id % num_banks
        row = row_id // num_banks
        channel = key % self.num_channels
        open_row = self._open_row.get(key)
        if open_row is None:
            core_latency = ROW_CLOSED_CYCLES
        elif open_row == row:
            core_latency = ROW_HIT_CYCLES
            self.row_hits += 1
        else:
            core_latency = ROW_CONFLICT_CYCLES
        self._open_row[key] = row

        start = max(now, self._channel_free_at[channel])
        queue_delay = start - now
        self._channel_free_at[channel] = start + CHANNEL_SERVICE_CYCLES

        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return queue_delay + core_latency

    @property
    def accesses(self) -> int:
        """Total read + write requests served."""
        return self.reads + self.writes

    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit in an open row buffer."""
        if self.accesses == 0:
            return 0.0
        return self.row_hits / self.accesses
