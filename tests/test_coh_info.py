"""Unit tests for the CohInfo tracking record."""

import random

import pytest

from repro.coherence.info import CohInfo
from repro.errors import ProtocolError


class TestConstruction:
    def test_default_is_idle(self):
        assert CohInfo().is_idle

    def test_owner_constructor(self):
        coh = CohInfo(owner=3)
        assert coh.is_exclusive and coh.owner == 3

    def test_sharers_constructor(self):
        coh = CohInfo(sharers=0b101)
        assert coh.is_shared and coh.sharer_list() == [0, 2]

    def test_owner_and_sharers_rejected(self):
        with pytest.raises(ProtocolError):
            CohInfo(owner=1, sharers=0b10)


class TestTransitions:
    def test_set_owner_clears_sharers(self):
        coh = CohInfo(sharers=0b111)
        coh.set_owner(5)
        assert coh.owner == 5 and coh.sharers == 0

    def test_add_sharer_demotes_owner(self):
        coh = CohInfo(owner=2)
        coh.add_sharer(4)
        assert not coh.is_exclusive
        assert coh.sharer_list() == [2, 4]

    def test_add_sharer_idempotent(self):
        coh = CohInfo()
        coh.add_sharer(1)
        coh.add_sharer(1)
        assert coh.sharer_count() == 1

    def test_remove_owner(self):
        coh = CohInfo(owner=2)
        coh.remove(2)
        assert coh.is_idle

    def test_remove_sharer(self):
        coh = CohInfo(sharers=0b110)
        coh.remove(1)
        assert coh.sharer_list() == [2]

    def test_remove_absent_core_is_noop(self):
        coh = CohInfo(sharers=0b10)
        coh.remove(5)
        assert coh.sharer_list() == [1]

    def test_clear(self):
        coh = CohInfo(sharers=0b11)
        coh.clear()
        assert coh.is_idle


class TestQueries:
    def test_holds_owner(self):
        assert CohInfo(owner=7).holds(7)
        assert not CohInfo(owner=7).holds(6)

    def test_holds_sharer(self):
        coh = CohInfo(sharers=1 << 9)
        assert coh.holds(9) and not coh.holds(8)

    def test_holders_for_owner(self):
        assert CohInfo(owner=4).holders() == [4]

    def test_holders_for_sharers(self):
        assert CohInfo(sharers=0b1010).holders() == [1, 3]

    def test_sharer_count_large_mask(self):
        coh = CohInfo(sharers=(1 << 128) - 1)
        assert coh.sharer_count() == 128

    def test_copy_is_independent(self):
        coh = CohInfo(sharers=0b11)
        clone = coh.copy()
        clone.add_sharer(5)
        assert coh.sharer_count() == 2
        assert clone.sharer_count() == 3


def bit_by_bit(mask: int) -> "list[int]":
    """The loop sharer_list replaced: test every bit from the lowest."""
    cores = []
    core = 0
    while mask:
        if mask & 1:
            cores.append(core)
        mask >>= 1
        core += 1
    return cores


class TestSetBitIteration:
    def test_matches_the_bit_by_bit_loop(self):
        rng = random.Random(17)
        masks = [0, 1, 1 << 127, (1 << 128) - 1]
        masks += [rng.getrandbits(rng.randint(1, 128)) for _ in range(2000)]
        masks += [1 << rng.randrange(128) | 1 << rng.randrange(128) for _ in range(200)]
        for mask in masks:
            expected = bit_by_bit(mask)
            assert CohInfo(sharers=mask).sharer_list() == expected
            assert CohInfo(sharers=mask).holders() == expected

    def test_owner_is_the_only_holder(self):
        assert CohInfo(owner=97).holders() == [97]
