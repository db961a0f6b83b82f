"""Unit tests for shared home-controller machinery (latency, traffic)."""

import random

import pytest

from conftest import Driver, make_system
from repro.coherence.info import CohInfo
from repro.interconnect.traffic import (
    CONTROL_BYTES,
    DATA_BYTES,
    MessageClass,
)
from repro.memory.dram import DramModel
from repro.sim.config import SparseSpec
from repro.types import AccessKind, PrivateState


@pytest.fixture
def home():
    return make_system(SparseSpec(ratio=2.0)).home


class TestLatencyHelpers:
    def test_two_hop_includes_round_trip_and_llc(self, home):
        config = home.config
        lat = home._two_hop(0, 3)
        expected = (
            2 * home.mesh.latency(0, 3)
            + config.llc_tag_latency
            + config.llc_data_latency
        )
        assert lat == expected

    def test_two_hop_without_data(self, home):
        diff = home._two_hop(0, 3) - home._two_hop(0, 3, with_data=False)
        assert diff == home.config.llc_data_latency

    def test_three_hop_visits_target(self, home):
        lat = home._three_hop(0, 1, 2)
        expected = (
            home.mesh.latency(0, 1)
            + home.config.llc_tag_latency
            + home.mesh.latency(1, 2)
            + home.config.l2_latency
            + home.mesh.latency(2, 0)
        )
        assert lat == expected

    def test_three_hop_extra_serialization(self, home):
        assert home._three_hop(0, 1, 2, llc_extra=3) == home._three_hop(0, 1, 2) + 3

    def test_invalidation_latency_takes_slowest_path(self, home):
        holders = [1, 2, 3]
        lat = home._invalidation_latency(0, holders, 0)
        expected = max(
            home.mesh.latency(0, h) + home.mesh.latency(h, 0) for h in holders
        )
        assert lat == expected

    def test_invalidation_latency_empty(self, home):
        assert home._invalidation_latency(0, [], 0) == 0

    def test_closest_sharer_minimizes_distance(self, home):
        coh = CohInfo(sharers=0b1110)
        elected = home._closest_sharer(coh, home=1)
        assert elected == 1

    def test_bank_mapping_interleaves(self, home):
        banks = {home.bank_of(addr) for addr in range(home.num_banks)}
        assert len(banks) == home.num_banks


class TestTrafficAccounting:
    def test_llc_hit_read_traffic(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.read(0, 0x40)  # miss -> DRAM, but interconnect: request + data
        meter = d.system.stats.traffic
        assert meter.bytes_for(MessageClass.PROCESSOR) == CONTROL_BYTES + DATA_BYTES

    def test_clean_eviction_notice_is_control_only(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.read(0, 0x40)
        before = d.system.stats.traffic.bytes_for(MessageClass.WRITEBACK)
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, 0x40 + i * step)
        after = d.system.stats.traffic.bytes_for(MessageClass.WRITEBACK)
        # Eight fills into an 8-way set evict exactly one block; its
        # clean (E) notice and the ack are both control-sized.
        assert (after - before) == 2 * CONTROL_BYTES

    def test_dirty_eviction_notice_carries_data(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.write(0, 0x40)
        before = d.system.stats.traffic.bytes_for(MessageClass.WRITEBACK)
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, 0x40 + i * step)
        after = d.system.stats.traffic.bytes_for(MessageClass.WRITEBACK)
        # The single victim is the dirty block: an M notice carrying the
        # data block plus a control acknowledgement.
        assert after - before == DATA_BYTES + CONTROL_BYTES

    def test_invalidations_counted_as_coherence(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.read(0, 0x40)
        d.read(1, 0x40)
        before = d.system.stats.traffic.bytes_for(MessageClass.COHERENCE)
        d.write(2, 0x40)
        after = d.system.stats.traffic.bytes_for(MessageClass.COHERENCE)
        assert after - before >= 2 * 2 * CONTROL_BYTES


class TestDirtyDataPaths:
    def test_store_dirty_data_marks_llc_dirty(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.write(0, 0x40)
        d.write(1, 0x40)  # steals ownership, data direct to requester
        d.read(2, 0x40)  # downgrade deposits dirty data at the LLC
        bank = d.system.home.banks[d.system.home.bank_of(0x40)]
        line, _ = bank.lookup(0x40, touch=False)
        from repro.types import LLCState

        assert line.state is LLCState.DIRTY

    def test_dram_write_on_llc_dirty_eviction(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        writes_before = d.system.dram.writes
        # Dirty a block, evict it from the private cache (data to LLC),
        # then flood that LLC set to evict the dirty line.
        d.write(0, 0x40)
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, 0x40 + i * step)
        llc_step = d.system.config.num_banks * d.system.config.llc_sets_per_bank
        for i in range(1, 20):
            d.read(1, 0x40 + i * llc_step)
        assert d.system.dram.writes > writes_before


class TestLatencyTablesAgainstMeshMethods:
    """The latency helpers index the mesh's tables; each must equal the
    formula it had when written with ``Mesh2D``'s methods."""

    @pytest.mark.parametrize("num_tiles", [4, 8, 16, 32, 64, 128])
    def test_helpers_match_the_method_formulas(self, num_tiles):
        system = make_system(SparseSpec(ratio=2.0), num_cores=num_tiles)
        home, mesh, config = system.home, system.mesh, system.config
        twin_dram = DramModel(config.dram_channels, config.dram_banks_per_channel)
        rng = random.Random(num_tiles)
        for step in range(300):
            core, home_tile, target = (rng.randrange(num_tiles) for _ in range(3))
            extra = rng.randrange(4)
            assert home._two_hop(core, home_tile) == (
                2 * mesh.latency(core, home_tile)
                + config.llc_tag_latency
                + config.llc_data_latency
            )
            assert home._three_hop(core, home_tile, target, extra) == (
                mesh.latency(core, home_tile)
                + config.llc_tag_latency
                + extra
                + mesh.latency(home_tile, target)
                + config.l2_latency
                + mesh.latency(target, core)
            )
            mask = rng.getrandbits(num_tiles)
            holders = CohInfo(sharers=mask).sharer_list()
            assert home._invalidation_latency(home_tile, holders, core) == max(
                (
                    mesh.latency(home_tile, holder) + mesh.latency(holder, core)
                    for holder in holders
                ),
                default=0,
            )
            if holders:
                assert home._closest_sharer(CohInfo(sharers=mask), home_tile) == min(
                    holders, key=lambda sharer: mesh.distance(home_tile, sharer)
                )
            addr = rng.randrange(1 << 24)
            now = step * 40
            assert home._dram_fetch(addr, now) == (
                2 * mesh.memory_latency(addr % home.num_banks)
                + twin_dram.access(addr, now, is_write=False)
            )
