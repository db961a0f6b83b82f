"""Stash directory bookkeeping, after Demetriades and Cho [14].

The Stash directory is an ordinary sparse directory with one twist: when
the directory evicts the entry of a *private* block, the private copy is
left in place ("stashed") instead of being back-invalidated. If such an
untracked block is later requested by another core, the home resorts to a
broadcast over all cores to rediscover the copy and rebuild the entry.

:class:`StashState` records which blocks are currently cached privately
but untracked. In hardware this knowledge is implicit (the broadcast
itself discovers the copies); keeping it explicitly here is a simulator
convenience that does not change protocol behaviour — the home still pays
the full broadcast latency and traffic whenever it touches a stashed
block.
"""

from __future__ import annotations


class StashState:
    """The set of privately cached blocks whose entries were dropped."""

    __slots__ = ("_stashed",)

    def __init__(self) -> None:
        self._stashed: "dict[int, int]" = {}

    def stash(self, addr: int, owner: int) -> None:
        """Mark ``addr`` as cached by ``owner`` but untracked."""
        self._stashed[addr] = owner

    def is_stashed(self, addr: int) -> bool:
        """True when ``addr`` is privately cached but untracked."""
        return addr in self._stashed

    def owner_of(self, addr: int) -> "int | None":
        """The stashed copy's holder, or None."""
        return self._stashed.get(addr)

    def unstash(self, addr: int) -> "int | None":
        """Remove ``addr`` from the stash (broadcast recovery or eviction
        notice); returns the holder core, or None if it was not stashed."""
        return self._stashed.pop(addr, None)

    def count(self) -> int:
        """Number of currently stashed blocks."""
        return len(self._stashed)
