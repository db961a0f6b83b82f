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
from repro.core.stra import NUM_CATEGORIES, StraCounters
from repro.errors import ConfigError, ProtocolError

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


class TinyDirectory:
    """The banked tiny directory.

    Each slice keeps its entries in way lists, which fix the free-way
    order, the victim choice and the generation-boundary walk. Beside
    them one dict per directory maps each live entry's address to the
    entry, so finding an entry is one dict probe.
    """

    __slots__ = (
        "policy",
        "num_banks",
        "entries_per_slice",
        "_slices",
        "_index",
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
        #: Address -> the live entry tracking it (every entry of the way
        #: lists, and nothing else).
        self._index: "dict[int, TinyEntry]" = {}
        # -- statistics (Figs. 16-18) ------------------------------------
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        self.declined = 0

    def lookup(self, addr: int, now: int) -> "TinyEntry | None":
        """Find the entry tracking ``addr``; updates gNRU reuse state.

        A hit marks the entry accessed: R set, EP cleared, timestamp
        updated. The entry is one index probe; the generation clock is
        called only when a gNRU tick has passed since its last advance,
        or when the entry's timestamp is stale.
        """
        slice_ = self._slices[addr % self.num_banks]
        estimator = slice_.estimator
        if estimator is not None and now // TICK_CYCLES > estimator.ticks_seen:
            slice_.advance(now)
        entry = self._index.get(addr)
        if entry is None:
            self.misses += 1
            return None
        entry.r_bit = True
        entry.ep_bit = False
        if estimator is not None and entry.tlast != estimator.t:
            entry.tlast = estimator.observe_access(entry.tlast)
        self.hits += 1
        return entry

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

        A free way (the lowest one) is taken unconditionally. In a full
        set, one pass over the ways computes each entry's STRA category
        once and picks the victim: the first way of the lowest category,
        or under gNRU the first such way with EP set if there is one. It
        is replaced only when its category is below ``category``, or
        under gNRU equal to it with EP set.
        """
        tracked = self._index
        if addr in tracked:
            raise ProtocolError(f"block {addr:#x} already has a tiny-directory entry")
        num_banks = self.num_banks
        slice_ = self._slices[addr % num_banks]
        estimator = slice_.estimator
        if estimator is not None and now // TICK_CYCLES > estimator.ticks_seen:
            slice_.advance(now)
        ways = slice_.sets[(addr // num_banks) % slice_.num_sets]
        incumbent = None
        if None in ways:
            way = ways.index(None)
        else:
            # Only a gNRU slice keeps a generation clock.
            gnru = estimator is not None
            lowest = NUM_CATEGORIES
            way = ep_way = -1
            for index, entry in enumerate(ways):
                entry_category = entry.stra.category()
                if entry_category < lowest:
                    lowest = entry_category
                    way = index
                    ep_way = index if entry.ep_bit else -1
                elif entry_category == lowest and ep_way < 0 and entry.ep_bit:
                    ep_way = index
            if gnru and ep_way >= 0:
                way = ep_way
            incumbent = ways[way]
            if not (
                lowest < category
                or (gnru and lowest == category and incumbent.ep_bit)
            ):
                self.declined += 1
                return None, None
            self.evictions += 1
            del tracked[incumbent.addr]
        entry = tracked[addr] = TinyEntry(addr, coh, stra)
        if estimator is not None:
            entry.tlast = estimator.t
        ways[way] = entry
        self.allocations += 1
        return entry, incumbent

    def find_quiet(self, addr: int) -> "TinyEntry | None":
        """Find an entry without touching reuse state or hit counters.

        Used for eviction-notice processing, which must not refresh the
        gNRU reuse bit of a dying block.
        """
        return self._index.get(addr)

    def remove(self, addr: int) -> "TinyEntry | None":
        """Drop the entry for ``addr`` (block lost its last holder, or its
        state moved elsewhere)."""
        entry = self._index.pop(addr, None)
        if entry is not None:
            num_banks = self.num_banks
            slice_ = self._slices[addr % num_banks]
            ways = slice_.sets[(addr // num_banks) % slice_.num_sets]
            ways[ways.index(entry)] = None
        return entry

    def occupancy(self) -> int:
        """Number of live entries."""
        return len(self._index)

    def iter_entries(self):
        """Yield every live entry (for invariants and tests), slice by
        slice and set by set in way order."""
        for slice_ in self._slices:
            for ways in slice_.sets:
                for entry in ways:
                    if entry is not None:
                        yield entry
