"""Coherence tracking information for one block.

A :class:`CohInfo` records where the valid private copies of a block live:
either a single exclusive owner (MESI E or M at the owner) or a set of
sharers (MESI S). The same record is used wherever tracking information
can reside — a sparse-directory entry, a tiny-directory entry, a corrupted
LLC block, or a spilled LLC tracking entry — so the home controller can
move it between structures without translation (exactly what the paper's
state-transfer operations do).

Sharer sets are integer bitmasks, which keeps the full-map bitvector of
the paper cheap to store and manipulate for up to hundreds of cores.
"""

from __future__ import annotations

from repro.errors import ProtocolError


class CohInfo:
    """Location information for the private copies of one block."""

    __slots__ = ("owner", "sharers")

    def __init__(self, owner: "int | None" = None, sharers: int = 0) -> None:
        if owner is not None and sharers:
            raise ProtocolError("a block cannot have both an owner and sharers")
        #: Core id of the exclusive owner (E or M), or None.
        self.owner = owner
        #: Bitmask of cores holding the block in S.
        self.sharers = sharers

    # -- predicates ----------------------------------------------------

    @property
    def is_exclusive(self) -> bool:
        """True when one core holds the block in E or M."""
        return self.owner is not None

    @property
    def is_shared(self) -> bool:
        """True when at least one core holds the block in S."""
        return self.sharers != 0

    @property
    def is_idle(self) -> bool:
        """True when no private cache holds the block."""
        return self.owner is None and self.sharers == 0

    def sharer_count(self) -> int:
        """Number of cores in the sharer set."""
        return bin(self.sharers).count("1")

    def holds(self, core: int) -> bool:
        """True when ``core`` has a valid copy according to this record."""
        return self.owner == core or bool(self.sharers >> core & 1)

    # -- mutation ------------------------------------------------------

    def set_owner(self, core: int) -> None:
        """Record ``core`` as the exclusive owner (clears any sharers)."""
        self.owner = core
        self.sharers = 0

    def add_sharer(self, core: int) -> None:
        """Add ``core`` to the sharer set (clears any exclusive owner)."""
        if self.owner is not None:
            self.sharers = 1 << self.owner
            self.owner = None
        self.sharers |= 1 << core

    def remove(self, core: int) -> None:
        """Drop ``core``'s copy from the record (eviction notice)."""
        if self.owner == core:
            self.owner = None
        self.sharers &= ~(1 << core)

    def clear(self) -> None:
        """Forget all copies (after invalidation of every holder)."""
        self.owner = None
        self.sharers = 0

    # -- iteration -----------------------------------------------------

    def sharer_list(self) -> "list[int]":
        """The sharer set as a sorted list of core ids."""
        cores = []
        mask = self.sharers
        while mask:
            # Visit the set bits only, lowest first.
            low = mask & -mask
            cores.append(low.bit_length() - 1)
            mask ^= low
        return cores

    def holders(self) -> "list[int]":
        """All cores with a valid copy (owner or sharers)."""
        if self.owner is not None:
            return [self.owner]
        return self.sharer_list()

    def copy(self) -> "CohInfo":
        """An independent copy of this record."""
        fresh = CohInfo()
        fresh.owner = self.owner
        fresh.sharers = self.sharers
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_exclusive:
            return f"CohInfo(owner={self.owner})"
        return f"CohInfo(sharers={self.sharers:#x})"
