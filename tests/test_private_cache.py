"""Unit tests for the per-core private hierarchy."""

import pytest

from repro.cache.private_cache import PrivateCore

MISS, L1_HIT, L2_HIT = PrivateCore.MISS, PrivateCore.L1_HIT, PrivateCore.L2_HIT
UPGRADE_L1, UPGRADE_L2 = PrivateCore.UPGRADE_L1, PrivateCore.UPGRADE_L2
from repro.errors import ConfigError, ProtocolError
from repro.types import AccessKind, PrivateState


def make_core(l1_sets=2, l1_assoc=2, l2_sets=4, l2_assoc=2) -> PrivateCore:
    return PrivateCore(0, l1_sets, l1_assoc, l2_sets, l2_assoc)


class TestProbe:
    def test_miss_when_empty(self):
        core = make_core()
        assert core.probe(0x10, AccessKind.READ) == MISS

    def test_l1_hit_after_fill(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert core.probe(0x10, AccessKind.READ) == L1_HIT

    def test_ifetch_and_data_use_separate_l1s(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        # The block is in dL1 + L2; an ifetch probe hits only at L2.
        assert core.probe(0x10, AccessKind.IFETCH) == L2_HIT

    def test_l2_hit_promotes_to_l1(self):
        core = make_core()
        core.fill(0x10, AccessKind.IFETCH, PrivateState.SHARED)
        assert core.probe(0x10, AccessKind.READ) == L2_HIT
        assert core.probe(0x10, AccessKind.READ) == L1_HIT

    def test_write_to_shared_needs_upgrade(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        assert core.probe(0x10, AccessKind.WRITE) == UPGRADE_L1
        assert core.state_of(0x10) is PrivateState.SHARED
        core.fill(0x20, AccessKind.IFETCH, PrivateState.SHARED)
        # Held in S in the L2 only: the write still needs an upgrade.
        assert core.probe(0x20, AccessKind.WRITE) == UPGRADE_L2

    def test_write_to_exclusive_silently_modifies(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert core.probe(0x10, AccessKind.WRITE) == L1_HIT
        assert core.state_of(0x10) is PrivateState.MODIFIED

    def test_write_to_modified_hits(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.probe(0x10, AccessKind.WRITE) == L1_HIT


class TestFillAndEvict:
    def test_fill_invalid_state_rejected(self):
        with pytest.raises(ProtocolError):
            make_core().fill(0x10, AccessKind.READ, PrivateState.INVALID)

    def test_l2_eviction_produces_notice(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(0, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        victim = core.fill(2, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert victim == (0, PrivateState.EXCLUSIVE)

    def test_eviction_preserves_inclusion(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(0, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(1, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(2, AccessKind.READ, PrivateState.EXCLUSIVE)
        # Block 0 left the L2, so it must not linger in any L1.
        assert core.probe(0, AccessKind.READ) == MISS

    def test_no_notice_when_way_free(self):
        core = make_core()
        assert core.fill(0x10, AccessKind.READ, PrivateState.SHARED) is None


class TestStateChanges:
    def test_invalidate_returns_prior_state(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.invalidate(0x10) is PrivateState.MODIFIED
        assert not core.holds(0x10)

    def test_invalidate_absent_returns_invalid(self):
        assert make_core().invalidate(0x99) is PrivateState.INVALID

    def test_downgrade_m_to_s(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.downgrade(0x10) is PrivateState.MODIFIED
        assert core.state_of(0x10) is PrivateState.SHARED

    def test_downgrade_requires_exclusive(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        with pytest.raises(ProtocolError):
            core.downgrade(0x10)

    def test_complete_upgrade(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        core.complete_upgrade(0x10)
        assert core.state_of(0x10) is PrivateState.MODIFIED

    def test_complete_upgrade_requires_shared(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        with pytest.raises(ProtocolError):
            core.complete_upgrade(0x10)

    def test_resident_blocks_enumeration(self):
        core = make_core()
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.WRITE, PrivateState.MODIFIED)
        resident = dict(core.resident_blocks())
        assert resident == {1: PrivateState.SHARED, 2: PrivateState.MODIFIED}


class TestLRU:
    """Recency within the private hierarchy, the simulator's only LRU
    structure."""

    def test_fill_evicts_least_recently_used(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        victim = core.fill(3, AccessKind.READ, PrivateState.SHARED)
        assert victim[0] == 1

    def test_l1_hit_refreshes_l2_recency(self):
        core = make_core(l1_sets=1, l1_assoc=2, l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        # An L1 hit makes block 1 the MRU block of the L2 set too.
        assert core.probe(1, AccessKind.READ) == L1_HIT
        victim = core.fill(3, AccessKind.READ, PrivateState.SHARED)
        assert victim[0] == 2

    def test_quiet_calls_leave_recency_alone(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        assert core.state_of(1) is PrivateState.EXCLUSIVE
        assert core.holds(1)
        core.downgrade(1)
        core.complete_upgrade(1)
        # Block 1 is still the LRU block of its set.
        victim = core.fill(3, AccessKind.READ, PrivateState.SHARED)
        assert victim == (1, PrivateState.MODIFIED)

    def test_no_eviction_with_free_ways(self):
        core = make_core(l2_sets=1, l2_assoc=4)
        for addr in range(4):
            assert core.fill(addr, AccessKind.READ, PrivateState.SHARED) is None
        assert all(core.holds(addr) for addr in range(4))

    def test_l2_hit_promotes_and_l1_victim_leaves_silently(self):
        core = make_core(l1_sets=1, l1_assoc=2, l2_sets=1, l2_assoc=4)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        # Block 1 leaves the full L1 without a notice; the L2 keeps it.
        assert core.fill(3, AccessKind.READ, PrivateState.SHARED) is None
        assert core.holds(1)
        assert core.probe(1, AccessKind.READ) == L2_HIT
        assert core.probe(1, AccessKind.READ) == L1_HIT
        # Promoting block 1 pushed block 2, the L1's LRU way, out of it.
        assert core.probe(2, AccessKind.READ) == L2_HIT

    def test_resident_blocks_yield_each_block_once_lru_first(self):
        core = make_core(l2_sets=2, l2_assoc=2)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        core.fill(1, AccessKind.WRITE, PrivateState.MODIFIED)
        core.fill(4, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert core.probe(2, AccessKind.READ) == L1_HIT
        # Set by set in the order the sets were first filled, LRU first.
        assert list(core.resident_blocks()) == [
            (4, PrivateState.EXCLUSIVE),
            (2, PrivateState.SHARED),
            (1, PrivateState.MODIFIED),
        ]
        # The first block listed for a set is the one its next fill evicts.
        victim = core.fill(6, AccessKind.READ, PrivateState.SHARED)
        assert victim[0] == 4


class TestGeometry:
    def test_non_positive_geometry_rejected(self):
        for geometry in ((0, 2, 4, 2), (2, 0, 4, 2), (2, 2, 0, 2), (2, 2, 4, 0)):
            with pytest.raises(ConfigError):
                make_core(*geometry)
