"""Unit tests for the directory organizations (sparse, zcache, MgD, stash)."""

import random

import pytest

from repro.coherence.info import CohInfo
from repro.directory.mgd import BLOCKS_PER_REGION, MultiGrainDirectory, RegionEntry
from repro.directory.sparse import FULLY_ASSOC_THRESHOLD, SparseDirectory
from repro.directory.stash import StashState
from repro.directory.zcache import ZCacheDirectory
from repro.errors import ConfigError


class TestSparseDirectory:
    def test_lookup_miss(self):
        directory = SparseDirectory(64, 2)
        assert directory.lookup(5) is None
        assert directory.misses == 1

    def test_allocate_and_lookup(self):
        directory = SparseDirectory(64, 2)
        coh = CohInfo(owner=1)
        assert directory.allocate(5, coh) is None
        assert directory.lookup(5) is coh
        assert directory.hits == 1

    def test_eviction_returns_victim(self):
        directory = SparseDirectory(4, 1, assoc=4)  # one set of 4
        for addr in range(4):
            directory.allocate(addr, CohInfo(owner=0))
        victim = directory.allocate(99, CohInfo(owner=0))
        assert victim is not None
        victim_addr, victim_coh = victim
        assert victim_addr in range(4)
        assert victim_coh.owner == 0
        assert directory.evictions == 1

    def test_remove(self):
        directory = SparseDirectory(64, 2)
        directory.allocate(5, CohInfo(owner=1))
        assert directory.remove(5) is not None
        assert directory.remove(5) is None

    def test_victim_address_rebuilt_from_its_bank(self):
        directory = SparseDirectory(8, 2, assoc=4)  # two slices of 4 ways
        for addr in (1, 3, 5, 7):  # all in bank 1
            directory.allocate(addr, CohInfo(owner=0))
        victim_addr, _ = directory.allocate(9, CohInfo(owner=0))
        assert victim_addr == 1
        assert {addr for addr, _ in directory.iter_entries()} == {3, 5, 7, 9}

    def test_small_slices_fully_associative(self):
        directory = SparseDirectory(FULLY_ASSOC_THRESHOLD * 2, 2)
        assert directory.slice_assoc == FULLY_ASSOC_THRESHOLD

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SparseDirectory(2, 4)

    def test_banked_isolation(self):
        directory = SparseDirectory(32, 4)
        directory.allocate(0, CohInfo(owner=0))  # bank 0
        directory.allocate(1, CohInfo(owner=1))  # bank 1
        assert directory.lookup(0).owner == 0
        assert directory.lookup(1).owner == 1

    def test_occupancy_and_iter(self):
        directory = SparseDirectory(64, 2)
        directory.allocate(3, CohInfo(owner=0))
        directory.allocate(4, CohInfo(owner=1))
        assert directory.occupancy() == 2
        assert {addr for addr, _ in directory.iter_entries()} == {3, 4}


class TestZCacheDirectory:
    def test_allocate_and_lookup(self):
        directory = ZCacheDirectory(64, 2)
        coh = CohInfo(owner=3)
        directory.allocate(10, coh)
        assert directory.lookup(10) is coh

    def test_remove(self):
        directory = ZCacheDirectory(64, 2)
        directory.allocate(10, CohInfo(owner=3))
        assert directory.remove(10) is not None
        assert directory.lookup(10) is None

    def test_eviction_reports_correct_address(self):
        directory = ZCacheDirectory(16, 2, ways=4)
        victims = []
        for addr in range(0, 200, 2):  # all in bank 0
            victim = directory.allocate(addr, CohInfo(owner=0))
            if victim is not None:
                victims.append(victim[0])
        assert victims, "expected evictions from a small z-cache"
        for addr in victims:
            assert addr % 2 == 0  # bank preserved in reconstruction

    def test_relocation_extends_reach(self):
        """Skewed hashing + relocation should beat a direct-mapped fill."""
        directory = ZCacheDirectory(64, 1, ways=4)
        inserted = 0
        evictions = 0
        for addr in range(48):
            if directory.allocate(addr, CohInfo(owner=0)) is not None:
                evictions += 1
            inserted += 1
        assert directory.occupancy() > 40  # holds most of 48 in 64 slots

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            ZCacheDirectory(4, 2, ways=4)

    def test_deterministic_across_instances(self):
        a = ZCacheDirectory(64, 2, seed=1)
        b = ZCacheDirectory(64, 2, seed=1)
        for addr in range(30):
            a.allocate(addr, CohInfo(owner=0))
            b.allocate(addr, CohInfo(owner=0))
        assert a.occupancy() == b.occupancy()


class TestMultiGrainDirectory:
    def test_region_of(self):
        assert MultiGrainDirectory.region_of(BLOCKS_PER_REGION - 1) == 0
        assert MultiGrainDirectory.region_of(BLOCKS_PER_REGION) == 1

    def test_region_entry_blocks(self):
        entry = RegionEntry(owner=2, presence=0b101)
        assert entry.blocks(1) == [BLOCKS_PER_REGION, BLOCKS_PER_REGION + 2]

    def test_region_entry_blocks_match_the_offset_loop(self):
        # The loop blocks() replaced: test every offset of the region.
        rng = random.Random(5)
        presences = [0, 1, 1 << (BLOCKS_PER_REGION - 1), (1 << BLOCKS_PER_REGION) - 1]
        presences += [rng.getrandbits(BLOCKS_PER_REGION) for _ in range(2000)]
        for presence in presences:
            region = rng.randrange(1 << 20)
            base = region * BLOCKS_PER_REGION
            expected = [
                base + offset
                for offset in range(BLOCKS_PER_REGION)
                if presence >> offset & 1
            ]
            assert RegionEntry(owner=0, presence=presence).blocks(region) == expected

    def test_block_and_region_do_not_alias(self):
        directory = MultiGrainDirectory(64, 2)
        directory.allocate_block(0, CohInfo(owner=0))
        directory.allocate_region(0, RegionEntry(owner=1, presence=1))
        assert directory.lookup_block(0).owner == 0
        assert directory.lookup_region(0).owner == 1

    def test_remove_block(self):
        directory = MultiGrainDirectory(64, 2)
        directory.allocate_block(5, CohInfo(owner=0))
        assert directory.remove_block(5) is not None
        assert directory.lookup_block(5) is None

    def test_remove_region(self):
        directory = MultiGrainDirectory(64, 2)
        directory.allocate_region(3, RegionEntry(owner=0, presence=0b11))
        assert directory.remove_region(3) is not None
        assert directory.lookup_region(3 * BLOCKS_PER_REGION) is None

    def test_victim_decoding(self):
        directory = MultiGrainDirectory(4, 1, assoc=4)
        for addr in range(4):
            directory.allocate_block(addr * 64, CohInfo(owner=0))
        victim = directory.allocate_region(9, RegionEntry(owner=1, presence=1))
        assert victim is not None
        kind, key, payload = victim
        assert kind == "block"
        assert isinstance(payload, CohInfo)

    def test_block_victim_address_rebuilt_from_its_bank(self):
        directory = MultiGrainDirectory(8, 2, assoc=4)  # two slices of 4 ways
        for addr in (1, 3, 5, 7):  # all in bank 1
            directory.allocate_block(addr, CohInfo(owner=addr))
        kind, addr, coh = directory.allocate_block(9, CohInfo(owner=9))
        assert (kind, addr, coh.owner) == ("block", 1, 1)
        assert {addr for addr, _ in directory.iter_blocks()} == {3, 5, 7, 9}


class TestStashState:
    def test_stash_and_query(self):
        stash = StashState()
        stash.stash(5, owner=3)
        assert stash.is_stashed(5)
        assert stash.owner_of(5) == 3

    def test_unstash(self):
        stash = StashState()
        stash.stash(5, owner=3)
        assert stash.unstash(5) == 3
        assert not stash.is_stashed(5)
        assert stash.unstash(5) is None

    def test_counters(self):
        stash = StashState()
        stash.stash(1, 0)
        stash.stash(2, 1)
        stash.unstash(1)
        assert stash.stashed_total == 2
        assert stash.count() == 1
