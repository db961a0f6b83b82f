"""Protocol tests for the MgD and Stash home controllers (Fig. 22)."""

import pytest

from conftest import Driver, make_system
from repro.directory.mgd import BLOCKS_PER_REGION
from repro.sim.config import MgdSpec, StashSpec
from repro.types import PrivateState


class TestMgd:
    @pytest.fixture
    def d(self) -> Driver:
        return Driver(make_system(MgdSpec(ratio=1 / 4)))

    def test_private_blocks_tracked_at_region_grain(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(4):
            d.read(0, region_base + offset)
        directory = d.system.home.directory
        entry = directory.lookup_region(region_base, touch=False)
        assert entry is not None and entry.owner == 0
        assert bin(entry.presence).count("1") == 4
        # One region entry, no block entries: the MgD saving.
        assert directory.lookup_block(region_base, touch=False) is None

    def test_second_core_demotes_region(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(3):
            d.read(0, region_base + offset)
        d.read(1, region_base)  # demotion
        directory = d.system.home.directory
        assert directory.lookup_region(region_base, touch=False) is None
        coh = directory.lookup_block(region_base, touch=False)
        assert coh is not None
        assert coh.holds(0) and coh.holds(1)

    def test_demotion_preserves_untouched_blocks(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(3):
            d.read(0, region_base + offset)
        d.read(1, region_base)
        # The owner's other blocks got block-grain entries.
        directory = d.system.home.directory
        for offset in (1, 2):
            coh = directory.lookup_block(region_base + offset, touch=False)
            assert coh is not None and coh.holds(0)
        assert d.state(0, region_base + 1) is not PrivateState.INVALID

    def test_ifetch_uses_block_grain(self, d):
        d.ifetch(0, 0x80)
        directory = d.system.home.directory
        assert directory.lookup_block(0x80, touch=False) is not None
        assert directory.lookup_region(0x80, touch=False) is None

    def test_eviction_notice_clears_presence(self, d):
        region_base = BLOCKS_PER_REGION * 4
        d.read(0, region_base)
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, region_base + i * step * BLOCKS_PER_REGION)
        directory = d.system.home.directory
        entry = directory.lookup_region(region_base, touch=False)
        assert entry is None or not entry.presence & 1

    def test_invariants_after_fuzz(self):
        Driver(make_system(MgdSpec(ratio=1 / 4))).fuzz(2500)

    def test_small_mgd_invariants_after_fuzz(self):
        Driver(make_system(MgdSpec(ratio=1 / 16))).fuzz(2500)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known gap: the region demotion's extra tag lookup is not "
        "charged, because the serve path sets the transaction's latency "
        "on its own; charging it changes MgD results",
    )
    def test_region_demotion_charges_a_tag_lookup(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(3):
            d.read(0, region_base + offset)
        home = d.system.home
        config = d.system.config
        forward = home._three_hop(1, region_base % home.num_banks, 0)
        latency = d.read(1, region_base)  # demotion, then a 3-hop forward
        assert latency == (
            config.l1_latency + config.l2_latency + forward
            + config.llc_tag_latency
        )


class TestStash:
    def small_stash(self) -> Driver:
        return Driver(make_system(StashSpec(ratio=1 / 16)))

    def test_private_victim_is_stashed_not_invalidated(self):
        d = self.small_stash()
        # Touch many private blocks from one core to overflow the
        # directory; victims should remain cached (stashed).
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        assert stash.count() > 0
        for addr in list(stash._stashed):
            assert d.system.cores[0].holds(addr)

    def test_broadcast_on_sharing_a_stashed_block(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        target = next(iter(stash._stashed))
        before = d.system.stats.broadcasts
        d.read(1, target)
        assert d.system.stats.broadcasts == before + 1
        assert d.state(1, target) is PrivateState.SHARED

    def test_broadcast_rebuilds_directory_entry(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        target = next(iter(d.system.home.stash._stashed))
        d.read(1, target)
        coh = d.system.home.directory.lookup(target, touch=False)
        assert coh is not None and coh.holds(0) and coh.holds(1)

    def test_eviction_notice_unstashes(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        target = next(iter(stash._stashed))
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, target + i * step)
        assert not stash.is_stashed(target)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known gap: the broadcast's latency is not charged, because "
        "the serve path sets the transaction's latency on its own; "
        "charging it changes Stash results",
    )
    def test_broadcast_recovery_charges_the_broadcast(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        home = d.system.home
        target = next(iter(home.stash._stashed))
        config = d.system.config
        mesh = home.mesh
        max_span = (mesh.width - 1 + mesh.height - 1) * mesh.hop_cycles
        forward = home._three_hop(1, target % home.num_banks, 0)
        latency = d.read(1, target)  # broadcast, then a 3-hop forward
        assert latency == (
            config.l1_latency + config.l2_latency + forward + 2 * max_span
        )

    def test_broadcast_traffic_is_heavy(self):
        """The paper's point: broadcast recovery saturates the NoC."""
        from repro.interconnect.traffic import MessageClass

        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        before = d.system.stats.traffic.messages_for(MessageClass.COHERENCE)
        target = next(iter(d.system.home.stash._stashed))
        d.read(1, target)
        after = d.system.stats.traffic.messages_for(MessageClass.COHERENCE)
        assert after - before >= 2 * d.system.config.num_cores

    def test_invariants_after_fuzz(self):
        self.small_stash().fuzz(2500)
