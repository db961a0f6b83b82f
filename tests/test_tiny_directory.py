"""Unit tests for the tiny directory and its allocation policies (§IV)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.info import CohInfo
from repro.core.gnru import TICK_CYCLES
from repro.core.stra import StraCounters
from repro.core.tiny_directory import (
    AllocationPolicy,
    TinyDirectory,
    TinyEntry,
    FULLY_ASSOC_THRESHOLD,
)
from repro.errors import ConfigError, ProtocolError


def stra_of_category(category: int) -> StraCounters:
    """Counters whose ratio falls in the requested category."""
    if category == 0:
        return StraCounters()
    if category == 7:
        return StraCounters(strac=63, oac=0)
    # Ci covers (1-1/2^(i-1), 1-1/2^i]; use the upper bound 1-1/2^i.
    strac = (1 << category) - 1
    return StraCounters(strac=strac, oac=1)


def make_tiny(entries=8, banks=1, policy=AllocationPolicy.DSTRA, assoc=4):
    return TinyDirectory(entries, banks, policy, assoc=assoc)


class TestConstruction:
    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            TinyDirectory(2, 4, AllocationPolicy.DSTRA)

    def test_small_slices_fully_associative(self):
        tiny = TinyDirectory(FULLY_ASSOC_THRESHOLD, 1, AllocationPolicy.DSTRA)
        assert tiny._slices[0].num_sets == 1
        assert tiny._slices[0].assoc == FULLY_ASSOC_THRESHOLD

    def test_large_slices_set_associative(self):
        tiny = TinyDirectory(64, 1, AllocationPolicy.DSTRA, assoc=8)
        assert tiny._slices[0].num_sets == 8
        assert tiny._slices[0].assoc == 8


class TestDSTRAPolicy:
    def test_allocates_into_free_way(self):
        tiny = make_tiny()
        entry, victim = tiny.try_allocate(1, 0, CohInfo(sharers=1), StraCounters(), 0)
        assert entry is not None and victim is None

    def test_declines_equal_category(self):
        tiny = make_tiny(entries=1, assoc=1)
        tiny.try_allocate(1, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        entry, victim = tiny.try_allocate(
            2, 3, CohInfo(sharers=1), stra_of_category(3), 0
        )
        assert entry is None and victim is None
        assert tiny.declined == 1

    def test_higher_category_replaces_lower(self):
        tiny = make_tiny(entries=1, assoc=1)
        tiny.try_allocate(1, 2, CohInfo(sharers=1), stra_of_category(2), 0)
        entry, victim = tiny.try_allocate(
            2, 5, CohInfo(sharers=1), stra_of_category(5), 0
        )
        assert entry is not None
        assert victim.addr == 1

    def test_lowest_category_way_is_victim(self):
        tiny = make_tiny(entries=3, assoc=3)
        for addr, cat in ((1, 4), (2, 1), (3, 6)):
            tiny.try_allocate(addr, cat, CohInfo(sharers=1), stra_of_category(cat), 0)
        entry, victim = tiny.try_allocate(
            9, 5, CohInfo(sharers=1), stra_of_category(5), 0
        )
        assert entry is not None
        assert victim.addr == 2  # category 1 was lowest

    def test_tie_breaks_to_lowest_way(self):
        tiny = make_tiny(entries=2, assoc=2)
        tiny.try_allocate(1, 2, CohInfo(sharers=1), stra_of_category(2), 0)
        tiny.try_allocate(2, 2, CohInfo(sharers=1), stra_of_category(2), 0)
        _, victim = tiny.try_allocate(9, 6, CohInfo(sharers=1), stra_of_category(6), 0)
        assert victim.addr == 1


class TestGNRUPolicy:
    def _gnru(self, entries=2, assoc=2):
        return TinyDirectory(
            entries, 1, AllocationPolicy.DSTRA_GNRU, assoc=assoc,
            default_generation_ticks=2,
        )

    def test_equal_category_with_ep_replaced(self):
        tiny = self._gnru(entries=1, assoc=1)
        tiny.try_allocate(1, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        # Two full generations with no access: R clears, then EP sets.
        tiny.lookup(99, 10 * TICK_CYCLES)
        entry, victim = tiny.try_allocate(
            2, 3, CohInfo(sharers=1), stra_of_category(3), 10 * TICK_CYCLES
        )
        assert entry is not None and victim.addr == 1

    def test_recently_used_entry_protected(self):
        tiny = self._gnru(entries=1, assoc=1)
        tiny.try_allocate(1, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        tiny.lookup(1, 10 * TICK_CYCLES)  # refresh R, clear EP
        entry, _ = tiny.try_allocate(
            2, 3, CohInfo(sharers=1), stra_of_category(3), 10 * TICK_CYCLES
        )
        assert entry is None

    def test_ep_preferred_among_equal_categories(self):
        tiny = self._gnru(entries=2, assoc=2)
        tiny.try_allocate(1, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        tiny.try_allocate(2, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        # Age both generations, then touch only entry 1.
        tiny.lookup(1, 10 * TICK_CYCLES)
        _, victim = tiny.try_allocate(
            9, 6, CohInfo(sharers=1), stra_of_category(6), 10 * TICK_CYCLES
        )
        assert victim.addr == 2

    def test_lookup_touch_sets_r_clears_ep(self):
        tiny = self._gnru(entries=1, assoc=1)
        tiny.try_allocate(1, 3, CohInfo(sharers=1), stra_of_category(3), 0)
        tiny.lookup(99, 10 * TICK_CYCLES)  # advance generations
        entry = tiny.find_quiet(1)
        assert entry.ep_bit
        tiny.lookup(1, 10 * TICK_CYCLES)
        assert entry.r_bit and not entry.ep_bit


class TestStructure:
    def test_lookup_counts_hits_and_misses(self):
        tiny = make_tiny()
        tiny.try_allocate(1, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        tiny.lookup(1, 0)
        tiny.lookup(2, 0)
        assert (tiny.hits, tiny.misses) == (1, 1)

    def test_find_quiet_does_not_count(self):
        tiny = make_tiny()
        tiny.try_allocate(1, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        tiny.find_quiet(1)
        assert tiny.hits == 0

    def test_remove(self):
        tiny = make_tiny()
        tiny.try_allocate(1, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        assert tiny.remove(1) is not None
        assert tiny.remove(1) is None
        assert tiny.occupancy() == 0

    def test_occupancy_and_iter(self):
        tiny = make_tiny(entries=4, assoc=4)
        for addr in range(3):
            tiny.try_allocate(addr, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        assert tiny.occupancy() == 3
        assert {entry.addr for entry in tiny.iter_entries()} == {0, 1, 2}

    def test_allocating_a_tracked_block_is_refused(self):
        tiny = make_tiny()
        tiny.try_allocate(1, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        with pytest.raises(ProtocolError, match="already has a tiny-directory entry"):
            tiny.try_allocate(1, 7, CohInfo(sharers=2), stra_of_category(7), 0)
        assert (tiny.allocations, tiny.occupancy()) == (1, 1)

    def test_banked_distribution(self):
        tiny = TinyDirectory(8, 2, AllocationPolicy.DSTRA, assoc=4)
        tiny.try_allocate(0, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        tiny.try_allocate(1, 1, CohInfo(sharers=1), stra_of_category(1), 0)
        assert tiny.find_quiet(0) is not None
        assert tiny.find_quiet(1) is not None


# ----------------------------------------------------------------------
# The victim choice against a reference of the §IV-A rule
# ----------------------------------------------------------------------


def reference_choose_victim_way(ways, gnru):
    """The DSTRA(+gNRU) way choice as the rule reads, in two passes.

    Returns ``(way, incumbent)``: the first free way and None, else the
    first way of the lowest STRA category and its entry, where under
    gNRU the first such way with EP set wins if there is one.
    """
    for way, entry in enumerate(ways):
        if entry is None:
            return way, None
    categories = [entry.stra.category() for entry in ways]
    lowest = min(categories)
    candidates = [way for way, category in enumerate(categories) if category == lowest]
    if gnru:
        with_ep = [way for way in candidates if ways[way].ep_bit]
        if with_ep:
            candidates = with_ep
    way = candidates[0]
    return way, ways[way]


def reference_try_allocate(tiny, addr, category, coh, stra, now):
    """``TinyDirectory.try_allocate`` by the rule: the incumbent is
    replaced only by a higher category, or under gNRU by an equal one
    when its EP bit is set. Returns ``(entry, victim, way)``."""
    slice_ = tiny._slices[addr % tiny.num_banks]
    slice_.advance(now)
    ways = slice_.sets[(addr // tiny.num_banks) % slice_.num_sets]
    gnru = tiny.policy is AllocationPolicy.DSTRA_GNRU
    way, incumbent = reference_choose_victim_way(ways, gnru)
    if incumbent is not None:
        incumbent_category = incumbent.stra.category()
        if not (
            incumbent_category < category
            or (gnru and incumbent_category == category and incumbent.ep_bit)
        ):
            tiny.declined += 1
            return None, None, None
        tiny.evictions += 1
    entry = TinyEntry(addr, coh, stra)
    if slice_.estimator is not None:
        entry.tlast = slice_.estimator.t
    ways[way] = entry
    tiny.allocations += 1
    return entry, incumbent, way


#: One STRAC/OAC pair per category C0..C7.
CATEGORY_PAIRS = [(0, 5), (1, 1), (3, 1), (7, 1), (15, 1), (31, 1), (63, 1), (9, 0)]
counter_pairs = st.one_of(
    st.sampled_from(CATEGORY_PAIRS),
    st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
#: An entry's (STRAC, OAC), EP bit and R bit.
entry_states = st.tuples(counter_pairs, st.booleans(), st.booleans())


@st.composite
def slices(draw):
    """A tiny directory geometry and the contents of one set of it: full
    in about half the examples, otherwise with some free ways."""
    banks = draw(st.sampled_from([1, 2]))
    per_slice = draw(st.sampled_from([1, 2, 3, 8, 16, 32, 64]))
    assoc = draw(st.sampled_from([2, 4, 8]))
    policy = draw(st.sampled_from(list(AllocationPolicy)))
    ways_per_set = TinyDirectory(
        per_slice * banks, banks, policy, assoc=assoc
    )._slices[0].assoc
    ways = draw(st.lists(entry_states, min_size=ways_per_set, max_size=ways_per_set))
    if draw(st.booleans()):
        for way in draw(st.sets(st.integers(0, ways_per_set - 1), min_size=1)):
            ways[way] = None
    addr = draw(st.integers(0, 1 << 12))
    return banks, per_slice, assoc, policy, ways, addr


def build_tiny(banks, per_slice, assoc, policy, ways, addr):
    """A directory whose set holding ``addr`` has the drawn contents."""
    tiny = TinyDirectory(
        per_slice * banks, banks, policy, assoc=assoc, default_generation_ticks=2
    )
    slice_ = tiny._slices[addr % banks]
    target = slice_.sets[(addr // banks) % slice_.num_sets]
    for way, state in enumerate(ways):
        if state is None:
            continue
        (strac, oac), ep_bit, r_bit = state
        # Resident blocks of the same set, other than ``addr``.
        resident = addr + banks * slice_.num_sets * (way + 1)
        entry = TinyEntry(resident, CohInfo(sharers=1), StraCounters(strac, oac))
        entry.ep_bit = ep_bit
        entry.r_bit = r_bit
        target[way] = entry
        # The directory's address index holds every entry of its ways.
        tiny._index[resident] = entry
    return tiny


@settings(max_examples=300, deadline=None)
@given(
    case=slices(),
    category=st.integers(0, 7),
    now=st.sampled_from(
        [0, TICK_CYCLES - 1, TICK_CYCLES, 2 * TICK_CYCLES, 40 * TICK_CYCLES]
    ),
)
def test_try_allocate_follows_the_reference_rule(case, category, now):
    tiny = build_tiny(*case)
    reference = build_tiny(*case)
    addr = case[-1]
    coh, stra = CohInfo(sharers=2), stra_of_category(category)
    slice_ = tiny._slices[addr % tiny.num_banks]
    ways = slice_.sets[(addr // tiny.num_banks) % slice_.num_sets]
    before = list(ways)

    entry, victim = tiny.try_allocate(addr, category, coh, stra, now)
    ref_entry, ref_victim, ref_way = reference_try_allocate(
        reference, addr, category, coh, stra, now
    )

    counters = ("allocations", "evictions", "declined")
    assert [getattr(tiny, name) for name in counters] == [
        getattr(reference, name) for name in counters
    ]
    if ref_entry is None:
        assert entry is None and victim is None
        assert ways == before
    else:
        way = ways.index(entry)
        assert way == ref_way
        assert (entry.addr, entry.coh, entry.stra, entry.tlast) == (
            ref_entry.addr, ref_entry.coh, ref_entry.stra, ref_entry.tlast,
        )
        assert (victim is None) == (ref_victim is None)
        if victim is not None:
            assert victim is before[way]
            assert victim.addr == ref_victim.addr
    # The generation clock moved both slices alike (R/EP of every entry).
    ref_slice = reference._slices[addr % reference.num_banks]
    ref_ways = ref_slice.sets[(addr // reference.num_banks) % ref_slice.num_sets]
    assert [
        None if e is None else (e.addr, e.r_bit, e.ep_bit, e.tlast) for e in ways
    ] == [
        None if e is None else (e.addr, e.r_bit, e.ep_bit, e.tlast) for e in ref_ways
    ]


# ----------------------------------------------------------------------
# The address index against the way scans it replaced
# ----------------------------------------------------------------------


def _ways_of(tiny, addr):
    slice_ = tiny._slices[addr % tiny.num_banks]
    return slice_, slice_.sets[(addr // tiny.num_banks) % slice_.num_sets]


def scan_lookup(tiny, addr, now):
    """``TinyDirectory.lookup`` as a scan of the set's ways (its code
    before the directory kept an address index)."""
    slice_, ways = _ways_of(tiny, addr)
    estimator = slice_.estimator
    if estimator is not None and now // TICK_CYCLES > estimator.ticks_seen:
        slice_.advance(now)
    for entry in ways:
        if entry is not None and entry.addr == addr:
            entry.r_bit = True
            entry.ep_bit = False
            if estimator is not None and entry.tlast != estimator.t:
                entry.tlast = estimator.observe_access(entry.tlast)
            tiny.hits += 1
            return entry
    tiny.misses += 1
    return None


def scan_find_quiet(tiny, addr):
    """``TinyDirectory.find_quiet`` as a scan of the set's ways."""
    for entry in _ways_of(tiny, addr)[1]:
        if entry is not None and entry.addr == addr:
            return entry
    return None


def scan_remove(tiny, addr):
    """``TinyDirectory.remove`` as a scan of the set's ways."""
    ways = _ways_of(tiny, addr)[1]
    for way, entry in enumerate(ways):
        if entry is not None and entry.addr == addr:
            ways[way] = None
            return entry
    return None


def _state(tiny):
    """Every way of every set: None, or the entry's address and gNRU
    state; then the counters."""
    ways = [
        None if entry is None else (entry.addr, entry.r_bit, entry.ep_bit, entry.tlast)
        for slice_ in tiny._slices
        for set_ways in slice_.sets
        for entry in set_ways
    ]
    counters = (tiny.hits, tiny.misses, tiny.allocations, tiny.evictions, tiny.declined)
    return ways, counters


def _addr(entry):
    return None if entry is None else entry.addr


@pytest.mark.parametrize("policy", list(AllocationPolicy))
@pytest.mark.parametrize("seed", range(6))
def test_index_agrees_with_the_way_scans(policy, seed):
    """Random lookups, quiet finds, removals and allocations, with STRA
    counters that move between them: after every step the index holds
    exactly the live entries of the way lists, and every hit, victim and
    declined count equals the scanning reference's."""
    rng = random.Random(seed)
    banks = rng.choice([1, 2, 4])
    # 2 and 16 entries a slice are fully associative; 64 is 8 sets of 8.
    entries = banks * rng.choice([2, 16, 64])
    tiny = TinyDirectory(entries, banks, policy, default_generation_ticks=2)
    reference = TinyDirectory(entries, banks, policy, default_generation_ticks=2)
    now = 0
    for _ in range(1500):
        now += rng.choice([0, 7, 300, TICK_CYCLES // 2, 3 * TICK_CYCLES])
        addr = rng.randrange(3 * entries)
        op = rng.random()
        if op < 0.35:
            got, expected = tiny.lookup(addr, now), scan_lookup(reference, addr, now)
        elif op < 0.5:
            got, expected = tiny.find_quiet(addr), scan_find_quiet(reference, addr)
        elif op < 0.65:
            got, expected = tiny.remove(addr), scan_remove(reference, addr)
        elif op < 0.75:
            # A tracked block's counters move (both directories share
            # the entry's counters).
            live = list(tiny.iter_entries())
            if live:
                stra = rng.choice(live).stra
                if rng.random() < 0.6:
                    stra.record_shared_read()
                else:
                    stra.record_other()
            got = expected = None
        elif scan_find_quiet(reference, addr) is None:
            # The home allocates only for a block the directory lacks.
            coh = CohInfo(sharers=1)
            stra = StraCounters(*rng.choice(CATEGORY_PAIRS))
            category = rng.randrange(8)
            entry, victim = tiny.try_allocate(addr, category, coh, stra, now)
            ref_entry, ref_victim, _way = reference_try_allocate(
                reference, addr, category, coh, stra, now
            )
            got, expected = (_addr(entry), _addr(victim)), (
                _addr(ref_entry), _addr(ref_victim),
            )
            assert got == expected
            got = expected = None
        else:
            got = expected = None
        assert _addr(got) == _addr(expected)
        assert _state(tiny) == _state(reference)
        live = list(tiny.iter_entries())
        assert len(tiny._index) == len(live) == tiny.occupancy()
        assert all(tiny._index.get(entry.addr) is entry for entry in live)
    assert tiny.hits and tiny.allocations
