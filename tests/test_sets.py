"""Unit tests for the NRU set-associative tag array."""

import pytest

from repro.cache.sets import SetAssocArray
from repro.errors import ConfigError


class TestBasics:
    def test_lookup_missing_returns_none(self):
        array = SetAssocArray(4, 2)
        assert array.lookup(0x10) is None

    def test_insert_then_lookup(self):
        array = SetAssocArray(4, 2)
        array.insert(0x10, "payload")
        assert array.lookup(0x10) == "payload"

    def test_set_index_wraps(self):
        array = SetAssocArray(4, 2)
        array.insert(1, "a")
        array.insert(9, "b")
        # Tag 5 maps to set 5 % 4 == 1, the full set holding 1 and 9.
        assert array.insert(5, "c") == (1, "a")

    def test_remove_returns_line(self):
        array = SetAssocArray(2, 2)
        array.insert(7, "x")
        assert array.remove(7) == "x"
        assert array.lookup(7) is None

    def test_remove_missing_returns_none(self):
        assert SetAssocArray(2, 2).remove(7) is None

    def test_occupancy(self):
        array = SetAssocArray(2, 4)
        for tag in range(3):
            array.insert(tag, str(tag))
        assert array.occupancy() == 3

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocArray(0, 2)
        with pytest.raises(ConfigError):
            SetAssocArray(2, 0)

    def test_iter_lines(self):
        array = SetAssocArray(2, 2)
        array.insert(1, "a")
        array.insert(2, "b")
        tags = {tag for tag, _ in array.iter_lines()}
        assert tags == {1, 2}


class TestNRU:
    def test_victimizes_unreferenced_line(self):
        array = SetAssocArray(1, 3)
        for tag in range(3):
            array.insert(tag, str(tag))
        # Clear all reference bits, then touch tags 0 and 2.
        array._unreferenced.update(range(3))
        array.lookup(0)
        array.lookup(2)
        evicted = array.insert(9, "9")
        assert evicted == (1, "1")

    def test_all_referenced_falls_back_to_first_way(self):
        array = SetAssocArray(1, 2)
        array.insert(1, "a")
        array.insert(2, "b")
        evicted = array.insert(3, "c")
        assert evicted == (1, "a")

    def test_gang_clear_on_saturation(self):
        array = SetAssocArray(1, 2)
        array.insert(1, "a")
        array.insert(2, "b")
        array.insert(3, "c")  # all referenced: clears bits, evicts 1
        remaining = [tag for tag, _ in array.iter_lines()]
        assert remaining == [2, 3]
        # The survivor's bit was cleared; the new tag's is set.
        assert 2 in array._unreferenced
        assert 3 not in array._unreferenced
