"""Unit tests for the common value types."""

from repro.types import (
    AccessKind,
    BLOCK_SIZE,
    LLCState,
    PrivateState,
    block_address,
    byte_address,
)


class TestAccessKind:
    def test_read_is_read(self):
        assert AccessKind.READ.is_read

    def test_ifetch_is_read(self):
        assert AccessKind.IFETCH.is_read

    def test_write_is_not_read(self):
        assert not AccessKind.WRITE.is_read


class TestPrivateState:
    def test_modified_is_exclusive(self):
        assert PrivateState.MODIFIED.is_exclusive

    def test_exclusive_is_exclusive(self):
        assert PrivateState.EXCLUSIVE.is_exclusive

    def test_shared_not_exclusive(self):
        assert not PrivateState.SHARED.is_exclusive

    def test_invalid_not_exclusive(self):
        assert not PrivateState.INVALID.is_exclusive


class TestAddressConversion:
    def test_block_address_strips_offset(self):
        assert block_address(BLOCK_SIZE - 1) == 0
        assert block_address(BLOCK_SIZE) == 1

    def test_byte_address_roundtrip(self):
        for block in (0, 1, 12345):
            assert block_address(byte_address(block)) == block

    def test_block_size_is_64(self):
        assert BLOCK_SIZE == 64


class TestLLCState:
    def test_llc_states_distinct(self):
        assert len({state.value for state in LLCState}) == len(list(LLCState))
