"""The baseline sparse directory (duplicate-tag coherence cache).

A sparse directory of size ``R x`` holds ``R * N`` entries, where ``N`` is
the aggregate block capacity of the private L2 caches. Entries are
full-map bitvectors (one :class:`~repro.coherence.info.CohInfo` each).
The directory is distributed into one slice per LLC bank; each slice is
eight-way set-associative with 1-bit NRU replacement, or fully associative
when it is small enough (Table I: the 1/128x and 1/256x sizes).

A replacement from the sparse directory forces the home controller to
invalidate (or retrieve, if dirty) every private copy of the victim block.
"""

from __future__ import annotations

from repro.cache.sets import SetAssocArray
from repro.coherence.info import CohInfo
from repro.errors import ConfigError

#: Slices at or below this many entries become fully associative.
FULLY_ASSOC_THRESHOLD = 16


class SparseDirectory:
    """A banked sparse directory with NRU replacement."""

    __slots__ = (
        "total_entries",
        "num_banks",
        "entries_per_slice",
        "slice_assoc",
        "_slices",
        "hits",
        "misses",
        "allocations",
        "evictions",
    )

    def __init__(
        self,
        total_entries: int,
        num_banks: int,
        assoc: int = 8,
    ) -> None:
        if total_entries < num_banks:
            raise ConfigError(
                f"directory of {total_entries} entries cannot be split into "
                f"{num_banks} slices"
            )
        self.total_entries = total_entries
        self.num_banks = num_banks
        entries_per_slice = total_entries // num_banks
        self.entries_per_slice = entries_per_slice
        if entries_per_slice <= FULLY_ASSOC_THRESHOLD:
            num_sets, slice_assoc = 1, entries_per_slice
        else:
            slice_assoc = min(assoc, entries_per_slice)
            num_sets = max(1, entries_per_slice // slice_assoc)
        self.slice_assoc = slice_assoc
        # Bank ``addr % num_banks`` tracks ``addr`` under the tag
        # ``addr // num_banks``.
        self._slices = [
            SetAssocArray(num_sets, slice_assoc) for _ in range(num_banks)
        ]
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0

    def lookup(self, addr: int, touch: bool = True) -> "CohInfo | None":
        """Return the tracking info for ``addr``, or None when untracked.

        Probes the slice's tables itself (one call per lookup); with
        ``touch``, a hit sets the entry's NRU reference bit.
        """
        num_banks = self.num_banks
        slice_ = self._slices[addr % num_banks]
        tag = addr // num_banks
        coh = slice_._payloads.get(tag)
        if coh is None:
            self.misses += 1
            return None
        if touch and slice_._unreferenced:
            slice_._unreferenced.discard(tag)
        self.hits += 1
        return coh

    def peek(self, addr: int) -> "CohInfo | None":
        """Quiet :meth:`lookup`: no hit/miss counting, no recency touch.

        Used by the invariant checkers and the fault injector so that
        auditing a run never perturbs its statistics.
        """
        num_banks = self.num_banks
        return self._slices[addr % num_banks]._payloads.get(addr // num_banks)

    def allocate(self, addr: int, coh: CohInfo) -> "tuple[int, CohInfo] | None":
        """Install a tracking entry for ``addr``.

        Returns the evicted ``(addr, CohInfo)`` pair when a victim entry
        had to be replaced; the caller must invalidate its private copies.
        Inserts into the slice's tables itself, with
        :meth:`SetAssocArray.insert`'s NRU rule.
        """
        num_banks = self.num_banks
        bank = addr % num_banks
        tag = addr // num_banks
        slice_ = self._slices[bank]
        self.allocations += 1
        payloads = slice_._payloads
        set_index = tag % slice_.num_sets
        lines = slice_._sets.get(set_index)
        if lines is None:
            slice_._sets[set_index] = [tag]
            payloads[tag] = coh
            return None
        evicted = None
        if len(lines) >= slice_.assoc:
            unreferenced = slice_._unreferenced
            for victim in lines:
                if victim in unreferenced:
                    break
            else:
                unreferenced.update(lines)
                victim = lines[0]
            lines.remove(victim)
            unreferenced.discard(victim)
            self.evictions += 1
            evicted = victim * num_banks + bank, payloads.pop(victim)
        lines.append(tag)
        payloads[tag] = coh
        return evicted

    def remove(self, addr: int) -> "CohInfo | None":
        """Drop the entry for ``addr`` (block has no private copies left)."""
        num_banks = self.num_banks
        return self._slices[addr % num_banks].remove(addr // num_banks)

    def occupancy(self) -> int:
        """Number of live tracking entries."""
        return sum(slice_.occupancy() for slice_ in self._slices)

    def iter_entries(self):
        """Yield (addr, CohInfo) for every live entry (for invariants)."""
        num_banks = self.num_banks
        for bank, slice_ in enumerate(self._slices):
            for tag, coh in slice_.iter_lines():
                yield tag * num_banks + bank, coh
