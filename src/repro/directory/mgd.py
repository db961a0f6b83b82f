"""Multi-grain directory (MgD) container, after Zebchuk et al. [47].

MgD tracks *private regions* with a single directory entry each: a region
entry records the owning core and a presence bitmap of the region's blocks
cached by that core. Blocks touched by more than one core fall back to
ordinary block-grain entries. This makes each entry cover up to a 1 KB
region (sixteen 64-byte blocks) of private data, which is where MgD's
entry savings come from — and why sharing-heavy workloads degrade once
the directory gets small (paper Fig. 22).

Region and block entries live in the same set-associative NRU array; keys
are tagged with a grain bit so the two kinds never alias.
"""

from __future__ import annotations

from repro.cache.sets import SetAssocArray
from repro.coherence.info import CohInfo
from repro.errors import ConfigError

#: Blocks per tracked region (1 KB regions of 64-byte blocks).
BLOCKS_PER_REGION = 16


class RegionEntry:
    """Tracking entry for a region privately cached by one core."""

    __slots__ = ("owner", "presence")

    def __init__(self, owner: int, presence: int = 0) -> None:
        self.owner = owner
        #: Bitmask over the region's BLOCKS_PER_REGION blocks.
        self.presence = presence

    def blocks(self, region: int) -> "list[int]":
        """Block addresses of the region marked present."""
        base = region * BLOCKS_PER_REGION - 1
        blocks = []
        mask = self.presence
        while mask:
            # Visit the set bits only, lowest first.
            low = mask & -mask
            blocks.append(base + low.bit_length())
            mask ^= low
        return blocks


class MultiGrainDirectory:
    """A banked multi-grain (region + block) directory."""

    __slots__ = (
        "total_entries",
        "num_banks",
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
                f"MgD of {total_entries} entries cannot be split into "
                f"{num_banks} slices"
            )
        self.total_entries = total_entries
        self.num_banks = num_banks
        entries_per_slice = total_entries // num_banks
        slice_assoc = min(assoc, entries_per_slice)
        num_sets = max(1, entries_per_slice // slice_assoc)
        self._slices = [
            SetAssocArray(num_sets, slice_assoc) for _ in range(num_banks)
        ]
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0

    # Block ``addr`` lives in bank ``addr % num_banks`` under the key
    # ``(addr // num_banks) << 1``. Region ``r`` lives in the bank of its
    # first block, ``r * BLOCKS_PER_REGION % num_banks``, under the key
    # ``r << 1 | 1``; the grain bit keeps the two kinds of key disjoint.

    @staticmethod
    def region_of(addr: int) -> int:
        """Region id of block address ``addr``."""
        return addr // BLOCKS_PER_REGION

    # -- block-grain entries -------------------------------------------

    def lookup_block(self, addr: int, touch: bool = True) -> "CohInfo | None":
        """Find a block-grain entry for ``addr``.

        Probes the slice's tables itself; with ``touch``, a hit sets the
        entry's NRU reference bit.
        """
        num_banks = self.num_banks
        slice_ = self._slices[addr % num_banks]
        key = (addr // num_banks) << 1
        coh = slice_._payloads.get(key)
        if coh is not None and touch and slice_._unreferenced:
            slice_._unreferenced.discard(key)
        return coh

    def lookup_region(self, addr: int, touch: bool = True) -> "RegionEntry | None":
        """Find the region entry covering ``addr`` (probing as
        :meth:`lookup_block` does)."""
        region = addr // BLOCKS_PER_REGION
        slice_ = self._slices[region * BLOCKS_PER_REGION % self.num_banks]
        key = region << 1 | 1
        entry = slice_._payloads.get(key)
        if entry is not None and touch and slice_._unreferenced:
            slice_._unreferenced.discard(key)
        return entry

    def peek_block(self, addr: int) -> "CohInfo | None":
        """Quiet :meth:`lookup_block` (invariant checks, fault injection)."""
        return self.lookup_block(addr, touch=False)

    def peek_region(self, addr: int) -> "RegionEntry | None":
        """Quiet :meth:`lookup_region` (invariant checks, fault injection)."""
        return self.lookup_region(addr, touch=False)

    def iter_blocks(self):
        """Yield ``(addr, CohInfo)`` for every live block-grain entry."""
        num_banks = self.num_banks
        for bank, slice_ in enumerate(self._slices):
            for key, coh in slice_.iter_lines():
                if not key & 1:
                    yield (key >> 1) * num_banks + bank, coh

    def iter_regions(self):
        """Yield ``(region, RegionEntry)`` for every live region entry."""
        for slice_ in self._slices:
            for key, entry in slice_.iter_lines():
                if key & 1:
                    yield key >> 1, entry

    def allocate_block(self, addr: int, coh: CohInfo):
        """Install a block entry; returns the victim, see :meth:`_victim`."""
        num_banks = self.num_banks
        bank = addr % num_banks
        self.allocations += 1
        evicted = self._slices[bank].insert((addr // num_banks) << 1, coh)
        return self._victim(evicted, bank)

    def allocate_region(self, region: int, entry: RegionEntry):
        """Install a region entry; returns the victim, see :meth:`_victim`."""
        bank = region * BLOCKS_PER_REGION % self.num_banks
        self.allocations += 1
        evicted = self._slices[bank].insert(region << 1 | 1, entry)
        return self._victim(evicted, bank)

    def _victim(self, evicted, bank: int):
        """Decode an evicted ``(key, payload)`` of ``bank`` to
        ('block', addr, CohInfo) or ('region', region, RegionEntry)."""
        if evicted is None:
            return None
        self.evictions += 1
        key, payload = evicted
        if key & 1:
            return "region", key >> 1, payload
        return "block", (key >> 1) * self.num_banks + bank, payload

    def remove_block(self, addr: int) -> "CohInfo | None":
        """Drop the block entry for ``addr``."""
        num_banks = self.num_banks
        return self._slices[addr % num_banks].remove((addr // num_banks) << 1)

    def remove_region(self, region: int) -> "RegionEntry | None":
        """Drop the region entry for ``region``."""
        return self._slices[region * BLOCKS_PER_REGION % self.num_banks].remove(
            region << 1 | 1
        )

    def occupancy(self) -> int:
        """Number of live entries (regions count once)."""
        return sum(slice_.occupancy() for slice_ in self._slices)
