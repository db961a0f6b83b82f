"""Skew-associative directory with a Z-cache style organization.

The paper's Figure 3 experiment includes a four-way skew-associative
sparse directory using H3 hash functions and a Z-cache organization [36].
Each way has its own hash function; on insertion, if every candidate way
is occupied, one level of Z-cache relocation is attempted (moving a
candidate to one of *its* alternative locations) before falling back to an
NRU-style victim among the candidates.

The H3 hash family XORs together per-bit random words selected by the set
bits of the key, giving pairwise-independent indices per way.
"""

from __future__ import annotations

import random

from repro.coherence.info import CohInfo
from repro.errors import ConfigError


class _Entry:
    __slots__ = ("addr", "coh", "ref")

    def __init__(self, addr: int, coh: CohInfo) -> None:
        self.addr = addr
        self.coh = coh
        self.ref = True


class _Slice:
    """One per-bank slice: ``ways`` arrays of ``rows`` entries each."""

    __slots__ = ("ways", "rows", "hashes", "arrays")

    def __init__(self, ways: int, rows: int, hashes: "list[list[int]]") -> None:
        self.ways = ways
        self.rows = rows
        self.hashes = hashes
        self.arrays: "list[list[_Entry | None]]" = [
            [None] * rows for _ in range(ways)
        ]

    def _index(self, way: int, key: int) -> int:
        value = 0
        words = self.hashes[way]
        bit = 0
        while key:
            if key & 1:
                value ^= words[bit % len(words)]
            key >>= 1
            bit += 1
        return value % self.rows

    def candidates(self, key: int) -> "list[tuple[int, int]]":
        """The (way, row) candidate positions for ``key``."""
        return [(way, self._index(way, key)) for way in range(self.ways)]

    def find(self, key: int) -> "_Entry | None":
        for way, row in self.candidates(key):
            entry = self.arrays[way][row]
            if entry is not None and entry.addr == key:
                entry.ref = True
                return entry
        return None

    def remove(self, key: int) -> "_Entry | None":
        for way, row in self.candidates(key):
            entry = self.arrays[way][row]
            if entry is not None and entry.addr == key:
                self.arrays[way][row] = None
                return entry
        return None

    def insert(self, key: int, coh: CohInfo) -> "_Entry | None":
        """Insert an entry; returns the displaced entry, if any."""
        positions = self.candidates(key)
        for way, row in positions:
            if self.arrays[way][row] is None:
                self.arrays[way][row] = _Entry(key, coh)
                return None
        # One level of Z-cache relocation: try to move a candidate into
        # one of its own free alternative positions.
        for way, row in positions:
            occupant = self.arrays[way][row]
            for alt_way, alt_row in self.candidates(occupant.addr):
                if alt_way == way:
                    continue
                if self.arrays[alt_way][alt_row] is None:
                    self.arrays[alt_way][alt_row] = occupant
                    self.arrays[way][row] = _Entry(key, coh)
                    return None
        # Fall back to an NRU victim among the direct candidates.
        victim_pos = None
        for way, row in positions:
            if not self.arrays[way][row].ref:
                victim_pos = (way, row)
                break
        if victim_pos is None:
            for way, row in positions:
                self.arrays[way][row].ref = False
            victim_pos = positions[0]
        way, row = victim_pos
        victim = self.arrays[way][row]
        self.arrays[way][row] = _Entry(key, coh)
        return victim

    def occupancy(self) -> int:
        return sum(
            1 for array in self.arrays for entry in array if entry is not None
        )


class ZCacheDirectory:
    """A banked four-way skew-associative directory.

    Exposes the same interface as
    :class:`~repro.directory.sparse.SparseDirectory` so home controllers
    can use either interchangeably.
    """

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
        ways: int = 4,
        seed: int = 0x5EED,
    ) -> None:
        if total_entries < num_banks * ways:
            raise ConfigError(
                f"Z-cache directory of {total_entries} entries is too small "
                f"for {num_banks} banks x {ways} ways"
            )
        self.total_entries = total_entries
        self.num_banks = num_banks
        rows = max(1, total_entries // (num_banks * ways))
        rng = random.Random(seed)
        hashes = [
            [rng.getrandbits(30) for _ in range(32)] for _ in range(ways)
        ]
        self._slices = [_Slice(ways, rows, hashes) for _ in range(num_banks)]
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0

    def _slice(self, addr: int) -> _Slice:
        return self._slices[addr % self.num_banks]

    def lookup(self, addr: int, touch: bool = True) -> "CohInfo | None":
        """Return the tracking info for ``addr``, or None when untracked."""
        entry = self._slice(addr).find(addr // self.num_banks)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.coh

    def peek(self, addr: int) -> "CohInfo | None":
        """Quiet :meth:`lookup`: no counters, no reference-bit update.

        Used by the invariant checkers and the fault injector so that
        auditing a run never perturbs its statistics or replacement state.
        """
        slice_ = self._slice(addr)
        key = addr // self.num_banks
        for way, row in slice_.candidates(key):
            entry = slice_.arrays[way][row]
            if entry is not None and entry.addr == key:
                return entry.coh
        return None

    def allocate(self, addr: int, coh: CohInfo) -> "tuple[int, CohInfo] | None":
        """Install an entry; returns the evicted (addr, CohInfo), if any."""
        slice_index = addr % self.num_banks
        victim = self._slices[slice_index].insert(addr // self.num_banks, coh)
        self.allocations += 1
        if victim is None:
            return None
        self.evictions += 1
        return victim.addr * self.num_banks + slice_index, victim.coh

    def remove(self, addr: int) -> "CohInfo | None":
        """Drop the entry for ``addr``."""
        entry = self._slice(addr).remove(addr // self.num_banks)
        return None if entry is None else entry.coh

    def occupancy(self) -> int:
        """Number of live tracking entries."""
        return sum(slice_.occupancy() for slice_ in self._slices)
