"""Unit tests for SimStats bookkeeping and serialization."""

from pathlib import Path

import pytest

from conftest import Driver, make_system
from repro.cache.llc import LLCLine
from repro.coherence.transaction import AccessOutcome
from repro.sim.config import SystemConfig
from repro.sim.engine import run_trace
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.types import AccessKind, LLCState
from repro.verify.differential import ALL_SCHEMES
from repro.verify.reproducer import default_verify_spec
from repro.workloads.capture import load_capture

CORPUS_TRACE = Path(__file__).parent / "corpus" / "stra-pumping.rtrace"


def outcome(**kw) -> AccessOutcome:
    out = AccessOutcome()
    for key, value in kw.items():
        setattr(out, key, value)
    return out


class TestOutcomeAccounting:
    def test_hop_counting(self):
        stats = SimStats()
        stats.on_outcome(AccessKind.READ, outcome(hops=2))
        stats.on_outcome(AccessKind.READ, outcome(hops=3))
        assert (stats.two_hop, stats.three_hop) == (1, 1)

    def test_lengthened_split_by_kind(self):
        stats = SimStats()
        stats.on_outcome(AccessKind.IFETCH, outcome(hops=3, lengthened=True))
        stats.on_outcome(AccessKind.READ, outcome(hops=3, lengthened=True))
        assert stats.lengthened == 2
        assert stats.lengthened_code == 1
        assert stats.lengthened_data == 1

    def test_miss_rate(self):
        stats = SimStats()
        stats.on_outcome(AccessKind.READ, outcome(dram_access=True))
        stats.on_outcome(AccessKind.READ, outcome())
        assert stats.llc_miss_rate == 0.5

    def test_zero_denominators(self):
        stats = SimStats()
        assert stats.llc_miss_rate == 0.0
        assert stats.lengthened_fraction == 0.0
        assert stats.shared_block_fraction == 0.0


class TestCounterIdentities:
    """The homes count each transaction's flags in place; every
    transaction lands in exactly one hop class and every lengthened
    access in exactly one of code/data."""

    @staticmethod
    def assert_identities(stats: SimStats) -> None:
        assert stats.llc_transactions > 0
        assert stats.two_hop + stats.three_hop == stats.llc_transactions
        assert (
            stats.lengthened_code + stats.lengthened_data == stats.lengthened
        )
        assert stats.upgrades <= stats.llc_transactions
        assert stats.llc_misses <= stats.llc_transactions

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_after_fuzz(self, scheme):
        driver = Driver(make_system(default_verify_spec(scheme)))
        driver.fuzz(1500)
        self.assert_identities(driver.system.stats)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_after_corpus_trace(self, scheme):
        streams, header = load_capture(CORPUS_TRACE)
        geometry = header["geometry"]
        config = SystemConfig(
            num_cores=geometry["num_cores"],
            l1_kb=geometry["l1_kb"],
            l2_kb=geometry["l2_kb"],
            scheme=default_verify_spec(scheme),
        )
        stats = run_trace(System(config), streams)
        self.assert_identities(stats)
        if scheme in ("in_llc", "tiny"):
            assert stats.lengthened_code > 0 and stats.lengthened_data > 0


class TestResidencyFlush:
    def _line(self, max_sharers=0, fwd=0, total=0) -> LLCLine:
        line = LLCLine(0, LLCState.CLEAN)
        line.sharers_seen = (1 << max_sharers) - 1  # max_sharers distinct cores
        line.fwd_reads = fwd
        line.total_reads = total
        return line

    def test_private_block_bin(self):
        stats = SimStats()
        stats.flush_residency(self._line(max_sharers=1))
        assert stats.sharer_bins[0] == 1
        assert stats.shared_block_fraction == 0.0

    def test_sharer_bins_boundaries(self):
        stats = SimStats()
        for sharers, expected_bin in ((2, 1), (4, 1), (5, 2), (8, 2), (9, 3), (16, 3), (17, 4)):
            stats.flush_residency(self._line(max_sharers=sharers))
        assert stats.sharer_bins == [0, 2, 2, 2, 1]

    def test_lengthened_blocks_and_categories(self):
        stats = SimStats()
        stats.flush_residency(self._line(max_sharers=3, fwd=9, total=10))
        assert stats.blocks_lengthened == 1
        # ratio 0.9 -> category 4
        assert stats.stra_block_categories[4] == 1
        assert stats.stra_access_categories[4] == 9

    def test_zero_fwd_reads_not_counted(self):
        stats = SimStats()
        stats.flush_residency(self._line(max_sharers=2, fwd=0, total=5))
        assert stats.blocks_lengthened == 0


class TestSerialization:
    def _populated(self) -> SimStats:
        stats = SimStats()
        stats.on_access(AccessKind.WRITE)
        stats.on_outcome(AccessKind.WRITE, outcome(hops=3, dram_access=True))
        stats.cycles = 1234
        stats.structures["tiny_hits"] = 7
        stats.flush_residency_lines = None  # not part of the API
        return stats

    def test_dump_load_roundtrip(self):
        stats = self._populated()
        clone = SimStats.load(stats.dump())
        assert clone.cycles == 1234
        assert clone.writes == 1
        assert clone.llc_misses == 1
        assert clone.structures["tiny_hits"] == 7

    def test_as_dict_has_derived_metrics(self):
        stats = self._populated()
        snapshot = stats.as_dict()
        assert snapshot["llc_miss_rate"] == 1.0
        assert "traffic" in snapshot

    def test_reset_zeroes_everything(self):
        stats = self._populated()
        meter = stats.traffic
        stats.reset()
        assert stats.accesses == 0
        assert stats.cycles == 0
        assert stats.traffic is meter
