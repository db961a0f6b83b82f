"""Unit tests for the LLC bank (corrupted states, spills, LRU rules)."""

import pytest

from repro.cache.llc import LLCBank
from repro.coherence.info import CohInfo
from repro.core.stra import StraCounters
from repro.errors import ConfigError, ProtocolError
from repro.types import LLCState


def make_bank(num_sets=4, assoc=2, stride=1, samples=0, bank_index=0) -> LLCBank:
    return LLCBank(
        num_sets, assoc, bank_stride=stride,
        no_spill_sample_sets=samples, bank_index=bank_index,
    )


def add_spill(bank, addr):
    return bank.insert_spill(addr, CohInfo(sharers=0b11), StraCounters())


class TestLookupAndInsert:
    def test_miss_returns_nones(self):
        assert make_bank().lookup(5) == (None, None)

    def test_insert_then_lookup(self):
        bank = make_bank()
        line, victim = bank.insert_block(5, LLCState.CLEAN)
        assert victim is None
        found, spill = bank.lookup(5)
        assert found is line and spill is None

    def test_lru_eviction(self):
        bank = make_bank(num_sets=1, assoc=2)
        bank.insert_block(0, LLCState.CLEAN)
        bank.insert_block(1, LLCState.CLEAN)
        bank.lookup(0)  # 0 becomes MRU
        _, victim = bank.insert_block(2, LLCState.CLEAN)
        assert victim.tag == 1

    def test_spilled_state_rejected_for_blocks(self):
        with pytest.raises(ProtocolError):
            make_bank().insert_block(0, LLCState.SPILLED_ENTRY)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            LLCBank(0, 1, 1)

    def test_set_index_uses_bank_stride(self):
        bank = make_bank(num_sets=4, stride=8)
        assert bank.set_index(8) == 1
        assert bank.set_index(16) == 2

    def test_remove_non_resident_rejected(self):
        bank = make_bank()
        line, _ = bank.insert_block(0, LLCState.CLEAN)
        bank.remove(line)
        with pytest.raises(ProtocolError):
            bank.remove(line)


class TestSpilledEntries:
    def test_spill_found_alongside_block(self):
        bank = make_bank()
        bank.insert_block(0, LLCState.CLEAN)
        spill, victim = add_spill(bank, 0)
        assert spill is not None and victim is None
        data, found_spill = bank.lookup(0)
        assert data.tag == 0 and data.state is LLCState.CLEAN
        assert found_spill is spill

    def test_spill_sits_below_companion(self):
        """E_B must be victimized before B (paper §IV-B1)."""
        bank = make_bank(num_sets=1, assoc=2)
        bank.insert_block(0, LLCState.CLEAN)
        add_spill(bank, 0)
        _, victim = bank.insert_block(1, LLCState.CLEAN)
        assert victim is not None and victim.state is LLCState.SPILLED_ENTRY

    def test_pair_touch_keeps_block_more_recent(self):
        bank = make_bank(num_sets=1, assoc=3)
        bank.insert_block(0, LLCState.CLEAN)
        add_spill(bank, 0)
        bank.insert_block(1, LLCState.CLEAN)
        bank.lookup(0)  # touches E_B then B
        _, victim = bank.insert_block(2, LLCState.CLEAN)
        assert victim.tag == 1  # not the pair

    def test_no_spill_sample_sets_refuse(self):
        bank = LLCBank(4, 2, bank_stride=1, no_spill_sample_sets=4, bank_index=0)
        refused = 0
        for set_index in range(4):
            if set_index in bank.sample_sets:
                spill, victim = bank.insert_spill(
                    set_index, CohInfo(sharers=0b1), StraCounters()
                )
                assert spill is None and victim is None
                refused += 1
        assert refused > 0

    def test_sample_sets_differ_across_banks(self):
        banks = [
            LLCBank(16, 2, bank_stride=1, no_spill_sample_sets=4, bank_index=i)
            for i in range(4)
        ]
        patterns = {
            tuple(s in bank.sample_sets for s in range(16)) for bank in banks
        }
        assert len(patterns) > 1


class TestStructure:
    """The per-set key lists and per-bank line dicts behind the bank."""

    def test_duplicate_block_rejected(self):
        bank = make_bank()
        bank.insert_block(5, LLCState.CLEAN)
        with pytest.raises(ProtocolError):
            bank.insert_block(5, LLCState.DIRTY)
        assert bank.occupancy() == 1

    def test_duplicate_spill_rejected(self):
        bank = make_bank()
        bank.insert_block(5, LLCState.CLEAN)
        add_spill(bank, 5)
        with pytest.raises(ProtocolError):
            add_spill(bank, 5)
        assert bank.occupancy() == 2

    def test_iter_lines_walks_sets_in_first_fill_order_lru_first(self):
        bank = make_bank(num_sets=4, assoc=3)
        bank.insert_block(2, LLCState.CLEAN)  # set 2 filled first
        bank.insert_block(1, LLCState.CLEAN)  # then set 1
        bank.insert_block(6, LLCState.CLEAN)  # set 2
        add_spill(bank, 6)  # set 2, just below block 6
        bank.insert_block(5, LLCState.CLEAN)  # set 1
        bank.lookup(1)  # block 1 becomes MRU of set 1
        assert [
            (line.tag, line.state) for line in bank.iter_lines()
        ] == [
            (2, LLCState.CLEAN),
            (6, LLCState.SPILLED_ENTRY),
            (6, LLCState.CLEAN),
            (5, LLCState.CLEAN),
            (1, LLCState.CLEAN),
        ]

    def test_peek_counts_nothing_and_keeps_recency(self):
        bank = make_bank(num_sets=1, assoc=2)
        bank.insert_block(0, LLCState.CLEAN)
        bank.insert_block(1, LLCState.CLEAN)
        before = bank.tag_lookups
        data, spill = bank.peek(0)
        assert data.tag == 0 and spill is None
        assert bank.tag_lookups == before
        _, victim = bank.insert_block(2, LLCState.CLEAN)
        assert victim.tag == 0  # still the LRU way

    def test_quiet_lookup_counts_one_and_keeps_recency(self):
        bank = make_bank(num_sets=1, assoc=2)
        bank.insert_block(0, LLCState.CLEAN)
        bank.insert_block(1, LLCState.CLEAN)
        before = bank.tag_lookups
        data, _ = bank.lookup(0, touch=False)
        assert data.tag == 0
        assert bank.tag_lookups == before + 1
        bank.lookup(7, touch=False)  # a miss counts too
        assert bank.tag_lookups == before + 2
        _, victim = bank.insert_block(2, LLCState.CLEAN)
        assert victim.tag == 0

    def test_spill_evicting_its_companion_stays_resident(self):
        bank = make_bank(num_sets=1, assoc=1)
        block, _ = bank.insert_block(3, LLCState.CLEAN)
        spill, victim = add_spill(bank, 3)
        assert victim is block
        assert bank.peek(3) == (None, spill)
        assert list(bank.iter_lines()) == [spill]
        bank.remove(spill)
        assert bank.occupancy() == 0


class TestResidencyStats:
    def test_note_holders_accumulates_distinct_cores(self):
        bank = make_bank()
        line, _ = bank.insert_block(0, LLCState.CLEAN)
        line.note_holders(CohInfo(sharers=0b011))
        line.note_holders(CohInfo(owner=3))
        line.note_holders(CohInfo(sharers=0b010))
        assert line.distinct_sharers() == 3

    def test_counters_start_zero(self):
        bank = make_bank()
        line, _ = bank.insert_block(0, LLCState.CLEAN)
        assert (line.fwd_reads, line.total_reads) == (0, 0)

    def test_activity_counters(self):
        bank = make_bank()
        bank.insert_block(0, LLCState.CLEAN)
        bank.lookup(0)
        assert bank.fills == 1
        assert bank.tag_lookups >= 1
        assert bank.occupancy() == 1
