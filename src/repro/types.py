"""Common value types shared across the simulator.

The simulator works at cache-block granularity. A *block address* is the
physical address with the block-offset bits stripped (i.e. ``addr >>
log2(block_size)``). All structures in this package index blocks by their
block address, never by byte address; helpers here convert between the two.

A trace access has no class: a trace is one list per core, indexed by
core, and each access in it is an exact ``(addr, kind, gap)`` tuple of
a block address, an :class:`AccessKind` and the compute cycles the core
spends before issuing it (see :mod:`repro.workloads.generator`).
"""

from __future__ import annotations

import enum

#: Size of a cache block in bytes (Table I of the paper).
BLOCK_SIZE = 64

#: log2 of the block size, used for byte<->block address conversion.
BLOCK_SHIFT = 6


class AccessKind(enum.Enum):
    """Kind of memory access issued by a core.

    ``IFETCH`` is an instruction read. The protocol responds to instruction
    reads in the S state even for a single requester (Section III-B of the
    paper) to accelerate code sharing.
    """

    READ = "read"
    WRITE = "write"
    IFETCH = "ifetch"

    @property
    def is_read(self) -> bool:
        """True for accesses that do not require exclusive ownership."""
        return self is not WRITE


# The members under module-level names, for per-transaction code. On
# Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``, which
# puts every ``AccessKind.WRITE`` on the interpreter's slow attribute
# path: about ten times the cost of a global lookup.
READ = AccessKind.READ
WRITE = AccessKind.WRITE
IFETCH = AccessKind.IFETCH


class PrivateState(enum.Enum):
    """MESI state of a block in a core's private cache hierarchy."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_exclusive(self) -> bool:
        """True when the holder owns the only valid private copy."""
        return self is MODIFIED or self is EXCLUSIVE


MODIFIED = PrivateState.MODIFIED
EXCLUSIVE = PrivateState.EXCLUSIVE
SHARED = PrivateState.SHARED
INVALID = PrivateState.INVALID


class LLCState(enum.Enum):
    """Stable state of an LLC block under in-LLC tracking (Table III).

    The two physical state bits (V, D) of an LLC block encode four states.
    ``CORRUPTED`` is the (V=0, D=1) encoding introduced by the paper: part
    of the data block is reused to store extended coherence state, so the
    data held in the LLC is not the authoritative block content.
    ``SPILLED_ENTRY`` also uses the (V=0, D=1) encoding but for a block
    that holds a *spilled coherence tracking entry* of another LLC-resident
    block with the same tag (Section IV-B1); it is distinguished here as a
    separate enum member for clarity.
    """

    INVALID = "invalid"  # V=0, D=0
    CLEAN = "clean"  # V=1, D=0: valid, unowned, not shared
    DIRTY = "dirty"  # V=1, D=1: valid, modified, unowned, not shared
    CORRUPTED = "corrupted"  # V=0, D=1: owned/shared, data bits borrowed
    SPILLED_ENTRY = "spilled"  # V=0, D=1: holds another block's tracking entry


LLC_INVALID = LLCState.INVALID
LLC_CLEAN = LLCState.CLEAN
LLC_DIRTY = LLCState.DIRTY
LLC_CORRUPTED = LLCState.CORRUPTED
LLC_SPILLED_ENTRY = LLCState.SPILLED_ENTRY


def block_address(byte_address: int) -> int:
    """Return the block address for ``byte_address``."""
    return byte_address >> BLOCK_SHIFT


def byte_address(block_addr: int) -> int:
    """Return the first byte address of block ``block_addr``."""
    return block_addr << BLOCK_SHIFT

