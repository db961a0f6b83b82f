"""Protocol tests for the tiny-directory home controller (paper §IV)."""

import pytest

from conftest import Driver, make_system
from repro.sim.config import TinySpec
from repro.types import LLCState, PrivateState


def tiny_system(**kw) -> Driver:
    spec = TinySpec(**{**dict(ratio=1 / 16, policy="dstra"), **kw})
    return Driver(make_system(spec))


def llc_line(d: Driver, addr: int):
    bank = d.system.home.banks[d.system.home.bank_of(addr)]
    return bank.lookup(addr, touch=False)


class TestAllocation:
    def test_read_to_corrupted_shared_triggers_allocation(self):
        d = tiny_system()
        d.ifetch(0, 0x40)  # corrupted shared {0}
        d.ifetch(1, 0x40)  # read to corrupted: allocation situation (i)
        assert d.system.home.tiny.find_quiet(0x40) is not None
        line, _ = llc_line(d, 0x40)
        assert line.state is LLCState.CLEAN  # reconstructed
        assert line.coh is None

    def test_ifetch_to_unowned_triggers_allocation(self):
        d = tiny_system()
        d.ifetch(0, 0x40)  # allocation situation (ii): free ways exist
        assert d.system.home.tiny.find_quiet(0x40) is not None

    def test_data_read_to_unowned_does_not_allocate(self):
        d = tiny_system()
        d.read(0, 0x40)
        assert d.system.home.tiny.find_quiet(0x40) is None
        line, _ = llc_line(d, 0x40)
        assert line.state is LLCState.CORRUPTED

    def test_tracked_shared_read_is_two_hop(self):
        d = tiny_system()
        d.ifetch(0, 0x40)
        d.ifetch(1, 0x40)
        before = d.system.stats.lengthened
        d.ifetch(2, 0x40)  # tiny-tracked: LLC supplies in 2 hops
        assert d.system.stats.lengthened == before
        assert d.state(2, 0x40) is PrivateState.SHARED

    def test_tiny_reduces_lengthened_vs_inllc(self):
        from repro.sim.config import InLLCSpec

        def lengthened(driver):
            for round_ in range(30):
                for core in range(4):
                    driver.ifetch(core, 0x40 * (round_ % 5))
            return driver.system.stats.lengthened

        inllc = Driver(make_system(InLLCSpec()))
        tiny = tiny_system()
        assert lengthened(tiny) < lengthened(inllc)


class TestTrackedWrites:
    def test_write_to_tiny_tracked_block(self):
        d = tiny_system()
        d.ifetch(0, 0x40)
        d.ifetch(1, 0x40)
        d.write(2, 0x40)
        entry = d.system.home.tiny.find_quiet(0x40)
        assert entry is not None and entry.coh.owner == 2
        assert d.state(0, 0x40) is PrivateState.INVALID

    def test_upgrade_on_tiny_tracked_block(self):
        d = tiny_system()
        d.ifetch(0, 0x40)
        d.ifetch(1, 0x40)
        d.write(1, 0x40)  # upgrade from S
        entry = d.system.home.tiny.find_quiet(0x40)
        assert entry.coh.owner == 1
        assert d.state(0, 0x40) is PrivateState.INVALID
        assert d.state(1, 0x40) is PrivateState.MODIFIED


class TestEntryLifecycle:
    def _evict_from_core(self, d, core, addr):
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(core, addr + i * step)

    def test_entry_freed_when_block_unowned(self):
        d = tiny_system()
        d.ifetch(0, 0x40)
        assert d.system.home.tiny.find_quiet(0x40) is not None
        self._evict_from_core(d, 0, 0x40)
        assert d.system.home.tiny.find_quiet(0x40) is None
        line, _ = llc_line(d, 0x40)
        assert line is not None and line.coh is None

    def test_invariants_dstra_fuzz(self):
        tiny_system(policy="dstra").fuzz(3000)

    def test_invariants_gnru_fuzz(self):
        tiny_system(policy="gnru").fuzz(3000)

    def test_invariants_spill_fuzz(self):
        tiny_system(policy="gnru", spill=True, spill_window=64).fuzz(3000)

    def test_invariants_tiny_256_fuzz(self):
        tiny_system(ratio=1 / 256, policy="gnru", spill=True, spill_window=64).fuzz(3000)


class TestEvictionNotices:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known double count: when the tiny directory does not hold "
        "the block, the spilled-entry probe and the in-LLC path each count "
        "a tag lookup for the same notice; fixing it changes tiny results",
    )
    def test_notice_for_a_block_tracked_in_its_llc_line_costs_one_tag_lookup(self):
        # One tag access finds both B and its spilled entry E_B, which
        # share a tag and a set (§IV-B1); in-LLC tracking counts one.
        d = tiny_system()
        d.read(0, 0x40)  # E at core 0, tracked in the corrupted LLC line
        home = d.system.home
        bank = home.banks[home.bank_of(0x40)]
        line, spill = bank.peek(0x40)
        if home.tiny.find_quiet(0x40) is not None or spill is not None:
            pytest.fail("set-up: the block must be tracked in its LLC line")
        if line is None or line.coh is None or line.coh.owner != 0:
            pytest.fail("set-up: the LLC line must record core 0 as owner")
        state = d.system.cores[0].invalidate(0x40)  # core 0 drops its copy
        before = bank.tag_lookups
        home.handle_private_eviction(0, 0x40, state, d.now)  # and notifies
        assert bank.tag_lookups == before + 1


class TestSpilling:
    def make_spilling_driver(self):
        d = tiny_system(ratio=1 / 64, policy="gnru", spill=True, spill_window=48)
        return d

    def test_spills_happen_under_pressure(self):
        d = self.make_spilling_driver()
        # Many hot shared blocks, far more than the tiny directory holds.
        for round_ in range(80):
            for core in range(4):
                for block in range(12):
                    d.ifetch(core, 0x40 + 0x40 * block)
        assert d.system.stats.spills > 0

    def test_spilled_entry_serves_two_hop(self):
        d = self.make_spilling_driver()
        for round_ in range(80):
            for core in range(4):
                for block in range(12):
                    d.ifetch(core, 0x40 + 0x40 * block)
        assert d.system.stats.spill_saved > 0

    def test_write_unspills_into_corrupted_exclusive(self):
        d = self.make_spilling_driver()
        for round_ in range(80):
            for core in range(4):
                for block in range(12):
                    d.ifetch(core, 0x40 + 0x40 * block)
        # Find a spilled block and write to it.
        spilled = None
        for bank in d.system.home.banks:
            for line in bank.iter_lines():
                if line.state is LLCState.SPILLED_ENTRY:
                    spilled = line.tag
                    break
            if spilled is not None:
                break
        assert spilled is not None
        writer = 3
        d.write(writer, spilled)
        data, spill = llc_line(d, spilled)
        assert spill is None
        assert data.state is LLCState.CORRUPTED
        assert data.coh.owner == writer

    def test_no_spills_when_disabled(self):
        d = tiny_system(ratio=1 / 64, policy="gnru", spill=False)
        for round_ in range(80):
            for core in range(4):
                for block in range(12):
                    d.ifetch(core, 0x40 + 0x40 * block)
        assert d.system.stats.spills == 0


class TestPerformanceShape:
    def _shared_heavy(self, d, rounds=60):
        for round_ in range(rounds):
            for core in range(4):
                d.ifetch(core, 0x40 * (round_ % 6))
                d.read(core, 0x1000 + 0x40 * (round_ % 4))

    def test_tiny_faster_than_inllc_on_shared_reads(self):
        from repro.sim.config import InLLCSpec

        inllc = Driver(make_system(InLLCSpec()))
        tiny = tiny_system()
        self._shared_heavy(inllc)
        self._shared_heavy(tiny)
        assert tiny.now < inllc.now
