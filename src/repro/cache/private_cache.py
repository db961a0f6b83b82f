"""Per-core private cache hierarchy: iL1, dL1, and a unified L2.

Coherence state is kept at the L2 level; the L1s are treated as inclusive
subsets of the L2 (the paper's hierarchy is non-inclusive, but inclusion
changes neither the hop counts nor the directory pressure that drive the
paper's results, and it keeps invalidation handling simple). Evictions
from the L2 are notified to the home LLC bank for every state, per the
paper's baseline protocol [29].
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.sets import SetAssocArray
from repro.errors import ProtocolError
from repro.types import (
    EXCLUSIVE,
    IFETCH,
    INVALID,
    MODIFIED,
    SHARED,
    WRITE,
    AccessKind,
    PrivateState,
)


@dataclass(frozen=True)
class EvictionNotice:
    """An L2 victim that must be reported to its home LLC bank."""

    addr: int
    state: PrivateState


class ProbeResult:
    """Outcome of probing the private hierarchy for an access."""

    __slots__ = ("level", "needs_upgrade")

    def __init__(self, level: str, needs_upgrade: bool = False) -> None:
        #: "l1", "l2", or "miss".
        self.level = level
        #: True when the block is held in S but the access is a write, so
        #: an upgrade request must be sent to the home bank.
        self.needs_upgrade = needs_upgrade

    @property
    def is_hit(self) -> bool:
        """True when the access completes within the private hierarchy."""
        return self.level != "miss" and not self.needs_upgrade


class PrivateCore:
    """The private cache hierarchy of one core."""

    __slots__ = ("core_id", "il1", "dl1", "l2")

    def __init__(
        self,
        core_id: int,
        l1_sets: int,
        l1_assoc: int,
        l2_sets: int,
        l2_assoc: int,
    ) -> None:
        self.core_id = core_id
        self.il1 = SetAssocArray(l1_sets, l1_assoc, "lru")
        self.dl1 = SetAssocArray(l1_sets, l1_assoc, "lru")
        self.l2 = SetAssocArray(l2_sets, l2_assoc, "lru")

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------

    #: :meth:`classify` return codes.
    MISS = 0
    L1_HIT = 1
    L2_HIT = 2
    UPGRADE_L1 = 3
    UPGRADE_L2 = 4

    def classify(self, addr: int, kind: AccessKind) -> int:
        """Probe the hierarchy for an access; returns an int code.

        The fast-lane twin of :meth:`probe` — identical side effects
        (recency touches in both levels, L1 promotion on an L2 hit, the
        silent E->M write upgrade, the inclusion check) but an int code
        instead of a :class:`ProbeResult` allocation. This is the single
        hottest call in the simulator, so the per-level LRU lookups of
        :meth:`SetAssocArray.lookup` are inlined (the private arrays are
        always LRU).

        Codes: ``MISS`` (0), ``L1_HIT`` (1), ``L2_HIT`` (2, promoted
        into the L1), ``UPGRADE_L1``/``UPGRADE_L2`` (3/4: held in S but
        the access is a write, so the home must serve an upgrade).
        """
        l1 = self.il1 if kind is IFETCH else self.dl1
        lines = l1._sets.get(addr % l1.num_sets)
        l1_line = None
        if lines:
            for position, line in enumerate(lines):
                if line.tag == addr:
                    if position != len(lines) - 1:
                        del lines[position]
                        lines.append(line)
                    l1_line = line
                    break
        l2 = self.l2
        lines = l2._sets.get(addr % l2.num_sets)
        l2_line = None
        if lines:
            for position, line in enumerate(lines):
                if line.tag == addr:
                    if position != len(lines) - 1:
                        del lines[position]
                        lines.append(line)
                    l2_line = line
                    break
        if l2_line is None:
            if l1_line is not None:
                raise ProtocolError(
                    f"core {self.core_id}: block {addr:#x} in L1 but not L2"
                )
            return 0
        state = l2_line.payload
        if kind is WRITE:
            if state is SHARED:
                return 3 if l1_line is not None else 4
            if state is EXCLUSIVE:
                l2_line.payload = MODIFIED
        if l1_line is not None:
            return 1
        # L2 hit: promote into L1 (inclusive, so no notice is needed for
        # the L1 victim -- the L2 still holds it).
        self._l1_fill(l1, addr)
        return 2

    def probe(self, addr: int, kind: AccessKind) -> ProbeResult:
        """Probe the hierarchy for an access without filling anything.

        On an L2 hit the block is promoted into the appropriate L1. A
        write that finds the block in S state reports ``needs_upgrade``;
        a write that finds it in E state silently upgrades to M.
        Delegates to :meth:`classify`, so the reference and fast lanes
        share one probe implementation.
        """
        code = self.classify(addr, kind)
        if code == 0:
            return ProbeResult("miss")
        if code == 3:
            return ProbeResult("l1", needs_upgrade=True)
        if code == 4:
            return ProbeResult("l2", needs_upgrade=True)
        return ProbeResult("l1" if code == 1 else "l2")

    # The private arrays map block ``addr`` to set ``addr % num_sets``
    # (SetAssocArray.set_index); the paths below inline that mapping.

    def _l1_fill(self, l1: SetAssocArray, addr: int) -> None:
        l1.insert(addr % l1.num_sets, addr, None)

    # ------------------------------------------------------------------
    # Fill and state-change paths (driven by the home controller)
    # ------------------------------------------------------------------

    def fill(self, addr: int, kind: AccessKind, state: PrivateState) -> "list[EvictionNotice]":
        """Install a block granted in ``state``; returns eviction notices.

        At most one L2 victim is produced; its L1 copies are removed to
        preserve inclusion.
        """
        if state is INVALID:
            raise ProtocolError("cannot fill a block in state I")
        notices = []
        l2 = self.l2
        evicted = l2.insert(addr % l2.num_sets, addr, state)
        if evicted is not None:
            self._drop_from_l1s(evicted.tag)
            notices.append(EvictionNotice(evicted.tag, evicted.payload))
        l1 = self.il1 if kind is IFETCH else self.dl1
        self._l1_fill(l1, addr)
        return notices

    def complete_upgrade(self, addr: int) -> None:
        """Transition a block held in S to M after an upgrade response."""
        l2 = self.l2
        line = l2.lookup(addr % l2.num_sets, addr, touch=False)
        if line is None or line.payload is not SHARED:
            raise ProtocolError(
                f"core {self.core_id}: upgrade completion for block {addr:#x} "
                f"not held in S"
            )
        line.payload = MODIFIED

    def invalidate(self, addr: int) -> PrivateState:
        """Invalidate a block everywhere in this hierarchy.

        Returns the state the block was held in (``INVALID`` when the
        block was not present, which callers treat as a stale-tracker
        protocol error where appropriate).
        """
        l2 = self.l2
        line = l2.remove(addr % l2.num_sets, addr)
        self._drop_from_l1s(addr)
        if line is None:
            return INVALID
        return line.payload

    def downgrade(self, addr: int) -> PrivateState:
        """Downgrade an exclusively held block to S (intervention).

        Returns the prior state (M or E) so the caller can account for a
        dirty writeback.
        """
        l2 = self.l2
        line = l2.lookup(addr % l2.num_sets, addr, touch=False)
        if line is None or not line.payload.is_exclusive:
            raise ProtocolError(
                f"core {self.core_id}: downgrade of block {addr:#x} "
                f"not held exclusively"
            )
        prior = line.payload
        line.payload = SHARED
        return prior

    def _drop_from_l1s(self, addr: int) -> None:
        il1 = self.il1
        il1.remove(addr % il1.num_sets, addr)
        dl1 = self.dl1
        dl1.remove(addr % dl1.num_sets, addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, addr: int) -> PrivateState:
        """The MESI state of ``addr`` in this hierarchy (I if absent)."""
        l2 = self.l2
        line = l2.lookup(addr % l2.num_sets, addr, touch=False)
        if line is None:
            return INVALID
        return line.payload

    def holds(self, addr: int) -> bool:
        """True when the block is valid anywhere in this hierarchy."""
        return self.state_of(addr) is not INVALID

    def resident_blocks(self):
        """Yield (addr, state) for every valid block (for invariants)."""
        for _, line in self.l2.iter_lines():
            yield line.tag, line.payload
