"""The tiny directory and its selective allocation policies (paper §IV).

The tiny directory is a very small sparse directory (1/32x .. 1/256x)
that dynamically identifies and tracks the subset of blocks responsible
for most shared accesses, so their reads complete in two hops while every
other block is tracked in-LLC. Entry selection is driven by the STRA
category of the competing blocks:

* **DSTRA** — victimize the entry with the lowest STRA category in the
  target set (lowest physical way id on ties), but only when the incoming
  block's category is strictly higher.
* **DSTRA+gNRU** — additionally maintain per-entry reuse (R) and
  eviction-priority (EP) bits over generations (see
  :mod:`repro.core.gnru`); entries untouched for a whole generation get
  EP set and may also be replaced by a block of *equal* category.

Each entry is 155 bits in hardware (full-map sharer vector, the STRAC/OAC
pair, the ten-bit timestamp, R/EP, and state bits); here it is a
:class:`TinyEntry` carrying the same information.
"""

from __future__ import annotations

import enum

from repro.coherence.info import CohInfo
from repro.core.gnru import TICK_CYCLES, GenerationEstimator
from repro.core.stra import StraCounters
from repro.errors import ConfigError

#: Slices at or below this many entries become fully associative
#: (Table I / Section V: the 1/128x and 1/256x sizes).
FULLY_ASSOC_THRESHOLD = 16


class AllocationPolicy(enum.Enum):
    """Tiny-directory allocation/eviction policy."""

    DSTRA = "dstra"
    DSTRA_GNRU = "gnru"


class TinyEntry:
    """One tiny-directory entry."""

    __slots__ = ("addr", "coh", "stra", "r_bit", "ep_bit", "tlast")

    def __init__(self, addr: int, coh: CohInfo, stra: StraCounters) -> None:
        self.addr = addr
        self.coh = coh
        self.stra = stra
        self.r_bit = True
        self.ep_bit = False
        self.tlast = 0


class _TinySlice:
    """One per-LLC-bank slice: way-indexed sets plus gNRU state."""

    __slots__ = ("num_sets", "assoc", "sets", "estimator")

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        estimator: "GenerationEstimator | None",
    ) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets: "list[list[TinyEntry | None]]" = [
            [None] * assoc for _ in range(num_sets)
        ]
        self.estimator = estimator

    def advance(self, now: int) -> None:
        """Advance the generation clock; apply boundary work if crossed."""
        if self.estimator is None:
            return
        boundaries = self.estimator.advance(now)
        for _ in range(min(boundaries, 2)):
            self._generation_boundary()

    def _generation_boundary(self) -> None:
        for ways in self.sets:
            for entry in ways:
                if entry is None:
                    continue
                if not entry.r_bit:
                    entry.ep_bit = True
                entry.r_bit = False

    def find(self, set_index: int, addr: int) -> "TinyEntry | None":
        for entry in self.sets[set_index]:
            if entry is not None and entry.addr == addr:
                return entry
        return None

    def choose_victim_way(self, set_index: int, gnru: bool) -> "tuple[int, TinyEntry | None]":
        """Pick the allocation way per the DSTRA(+gNRU) rules.

        Returns ``(way, entry)``; ``entry`` is None when a free way
        exists (allocation is then unconditional).
        """
        ways = self.sets[set_index]
        for way, entry in enumerate(ways):
            if entry is None:
                return way, None
        categories = [entry.stra.category() for entry in ways]
        lowest = min(categories)
        candidates = [
            way for way, category in enumerate(categories) if category == lowest
        ]
        if gnru:
            with_ep = [way for way in candidates if ways[way].ep_bit]
            if with_ep:
                candidates = with_ep
        way = candidates[0]
        return way, ways[way]


class TinyDirectory:
    """The banked tiny directory."""

    __slots__ = (
        "policy",
        "num_banks",
        "entries_per_slice",
        "_slices",
        "hits",
        "misses",
        "allocations",
        "evictions",
        "declined",
    )

    def __init__(
        self,
        total_entries: int,
        num_banks: int,
        policy: AllocationPolicy,
        assoc: int = 8,
        default_generation_ticks: int = 16,
        gnru_adaptive: bool = True,
    ) -> None:
        if total_entries < num_banks:
            raise ConfigError(
                f"tiny directory of {total_entries} entries cannot be split "
                f"into {num_banks} slices"
            )
        self.policy = policy
        self.num_banks = num_banks
        entries_per_slice = total_entries // num_banks
        self.entries_per_slice = entries_per_slice
        if entries_per_slice <= FULLY_ASSOC_THRESHOLD:
            num_sets, slice_assoc = 1, entries_per_slice
        else:
            slice_assoc = min(assoc, entries_per_slice)
            num_sets = max(1, entries_per_slice // slice_assoc)
        gnru = policy is AllocationPolicy.DSTRA_GNRU
        self._slices = [
            _TinySlice(
                num_sets,
                slice_assoc,
                GenerationEstimator(default_generation_ticks, gnru_adaptive)
                if gnru
                else None,
            )
            for _ in range(num_banks)
        ]
        # -- statistics (Figs. 16-18) ------------------------------------
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        self.declined = 0

    def _locate(self, addr: int) -> "tuple[_TinySlice, int]":
        slice_ = self._slices[addr % self.num_banks]
        return slice_, (addr // self.num_banks) % slice_.num_sets

    def lookup(self, addr: int, now: int) -> "TinyEntry | None":
        """Find the entry tracking ``addr``; updates gNRU reuse state.

        A hit marks the entry accessed: R set, EP cleared, timestamp
        updated. The slice is probed here, in one method; the generation
        clock is called only when a gNRU tick has passed since its last
        advance, or when the entry's timestamp is stale.
        """
        num_banks = self.num_banks
        slice_ = self._slices[addr % num_banks]
        estimator = slice_.estimator
        if estimator is not None and now // TICK_CYCLES > estimator.ticks_seen:
            slice_.advance(now)
        for entry in slice_.sets[(addr // num_banks) % slice_.num_sets]:
            if entry is not None and entry.addr == addr:
                entry.r_bit = True
                entry.ep_bit = False
                if estimator is not None and entry.tlast != estimator.t:
                    entry.tlast = estimator.observe_access(entry.tlast)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def try_allocate(
        self,
        addr: int,
        category: int,
        coh: CohInfo,
        stra: StraCounters,
        now: int,
    ) -> "tuple[TinyEntry | None, TinyEntry | None]":
        """Attempt to allocate an entry for ``addr`` of STRA ``category``.

        Returns ``(entry, victim)``: both None when the policy declines;
        ``victim`` carries the displaced entry's tracking state, which the
        caller must transfer to the victim block's LLC line (or spill, or
        back-invalidate).
        """
        slice_, set_index = self._locate(addr)
        slice_.advance(now)
        gnru = self.policy is AllocationPolicy.DSTRA_GNRU
        way, incumbent = slice_.choose_victim_way(set_index, gnru)
        if incumbent is not None:
            incumbent_category = incumbent.stra.category()
            allowed = incumbent_category < category or (
                gnru and incumbent_category == category and incumbent.ep_bit
            )
            if not allowed:
                self.declined += 1
                return None, None
            self.evictions += 1
        entry = TinyEntry(addr, coh, stra)
        if slice_.estimator is not None:
            entry.tlast = slice_.estimator.t
        slice_.sets[set_index][way] = entry
        self.allocations += 1
        return entry, incumbent

    def find_quiet(self, addr: int) -> "TinyEntry | None":
        """Find an entry without touching reuse state or hit counters.

        Used for eviction-notice processing, which must not refresh the
        gNRU reuse bit of a dying block.
        """
        slice_, set_index = self._locate(addr)
        return slice_.find(set_index, addr)

    def remove(self, addr: int) -> "TinyEntry | None":
        """Drop the entry for ``addr`` (block lost its last holder, or its
        state moved elsewhere)."""
        slice_, set_index = self._locate(addr)
        ways = slice_.sets[set_index]
        for way, entry in enumerate(ways):
            if entry is not None and entry.addr == addr:
                ways[way] = None
                return entry
        return None

    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(
            1
            for slice_ in self._slices
            for ways in slice_.sets
            for entry in ways
            if entry is not None
        )

    def iter_entries(self):
        """Yield every live entry (for invariants and tests)."""
        for slice_ in self._slices:
            for ways in slice_.sets:
                for entry in ways:
                    if entry is not None:
                        yield entry
