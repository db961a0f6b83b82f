"""Per-core private cache hierarchy: iL1, dL1, and a unified L2.

Coherence state is kept at the L2 level; the L1s are treated as inclusive
subsets of the L2 (the paper's hierarchy is non-inclusive, but inclusion
changes neither the hop counts nor the directory pressure that drive the
paper's results, and it keeps invalidation handling simple). Evictions
from the L2 are notified to the home LLC bank for every state, per the
paper's baseline protocol [29].
"""

from __future__ import annotations

from repro.errors import ConfigError, ProtocolError
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
    """The private cache hierarchy of one core.

    Each level maps a set index to the block addresses resident in that
    set, LRU first; a block lives in set ``addr % sets`` of its level.
    :attr:`states` maps every L2-resident block to its MESI state, so a
    state check is one dict lookup and the L1s carry no payload at all.
    """

    __slots__ = (
        "core_id",
        "l1_sets",
        "l1_assoc",
        "l2_sets",
        "l2_assoc",
        "il1",
        "dl1",
        "l2",
        "states",
    )

    def __init__(
        self,
        core_id: int,
        l1_sets: int,
        l1_assoc: int,
        l2_sets: int,
        l2_assoc: int,
    ) -> None:
        if min(l1_sets, l1_assoc, l2_sets, l2_assoc) <= 0:
            raise ConfigError(
                f"num_sets and assoc must be positive, got L1 "
                f"{l1_sets}x{l1_assoc}, L2 {l2_sets}x{l2_assoc}"
            )
        self.core_id = core_id
        self.l1_sets = l1_sets
        self.l1_assoc = l1_assoc
        self.l2_sets = l2_sets
        self.l2_assoc = l2_assoc
        self.il1: "dict[int, list[int]]" = {}
        self.dl1: "dict[int, list[int]]" = {}
        self.l2: "dict[int, list[int]]" = {}
        self.states: "dict[int, PrivateState]" = {}

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
        hottest call in the simulator: L1 membership compares the MRU
        way, then tests the rest of the set with one list containment
        check; L2 residency is one dict lookup; and a block moves to MRU
        only when it is not already last.

        Codes: ``MISS`` (0), ``L1_HIT`` (1), ``L2_HIT`` (2, promoted
        into the L1), ``UPGRADE_L1``/``UPGRADE_L2`` (3/4: held in S but
        the access is a write, so the home must serve an upgrade).
        """
        l1 = self.il1 if kind is IFETCH else self.dl1
        lines = l1.get(addr % self.l1_sets)
        in_l1 = False
        if lines:
            if lines[-1] == addr:
                in_l1 = True
            elif addr in lines:
                in_l1 = True
                lines.remove(addr)
                lines.append(addr)
        state = self.states.get(addr)
        if state is None:
            if in_l1:
                raise ProtocolError(
                    f"core {self.core_id}: block {addr:#x} in L1 but not L2"
                )
            return 0
        lines = self.l2[addr % self.l2_sets]
        if lines[-1] != addr:
            lines.remove(addr)
            lines.append(addr)
        if kind is WRITE:
            if state is SHARED:
                return 3 if in_l1 else 4
            if state is EXCLUSIVE:
                self.states[addr] = MODIFIED
        if in_l1:
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

    def _l1_fill(self, l1: "dict[int, list[int]]", addr: int) -> None:
        """Install ``addr`` as MRU of its L1 set; the LRU way leaves
        silently (the L2 still holds it)."""
        set_index = addr % self.l1_sets
        lines = l1.get(set_index)
        if lines is None:
            l1[set_index] = [addr]
            return
        if len(lines) >= self.l1_assoc:
            del lines[0]
        lines.append(addr)

    # ------------------------------------------------------------------
    # Fill and state-change paths (driven by the home controller)
    # ------------------------------------------------------------------

    def fill(self, addr: int, kind: AccessKind, state: PrivateState) -> "tuple[int, PrivateState] | None":
        """Install a block granted in ``state``.

        Returns the L2 victim, which must be reported to its home LLC
        bank, as an ``(addr, state)`` pair, or None when a way was free.
        The victim's L1 copies are removed to preserve inclusion.
        """
        if state is INVALID:
            raise ProtocolError("cannot fill a block in state I")
        victim = None
        states = self.states
        set_index = addr % self.l2_sets
        lines = self.l2.get(set_index)
        if lines is None:
            lines = self.l2[set_index] = []
        elif len(lines) >= self.l2_assoc:
            victim_addr = lines.pop(0)
            self._drop_from_l1s(victim_addr)
            victim = victim_addr, states.pop(victim_addr)
        lines.append(addr)
        states[addr] = state
        self._l1_fill(self.il1 if kind is IFETCH else self.dl1, addr)
        return victim

    def complete_upgrade(self, addr: int) -> None:
        """Transition a block held in S to M after an upgrade response."""
        if self.states.get(addr) is not SHARED:
            raise ProtocolError(
                f"core {self.core_id}: upgrade completion for block {addr:#x} "
                f"not held in S"
            )
        self.states[addr] = MODIFIED

    def invalidate(self, addr: int) -> PrivateState:
        """Invalidate a block everywhere in this hierarchy.

        Returns the state the block was held in (``INVALID`` when the
        block was not present, which callers treat as a stale-tracker
        protocol error where appropriate).
        """
        state = self.states.pop(addr, INVALID)
        if state is not INVALID:
            self.l2[addr % self.l2_sets].remove(addr)
        self._drop_from_l1s(addr)
        return state

    def downgrade(self, addr: int) -> PrivateState:
        """Downgrade an exclusively held block to S (intervention).

        Returns the prior state (M or E) so the caller can account for a
        dirty writeback.
        """
        prior = self.states.get(addr)
        if prior is not MODIFIED and prior is not EXCLUSIVE:
            raise ProtocolError(
                f"core {self.core_id}: downgrade of block {addr:#x} "
                f"not held exclusively"
            )
        self.states[addr] = SHARED
        return prior

    def _drop_from_l1s(self, addr: int) -> None:
        set_index = addr % self.l1_sets
        lines = self.il1.get(set_index)
        if lines and addr in lines:
            lines.remove(addr)
        lines = self.dl1.get(set_index)
        if lines and addr in lines:
            lines.remove(addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, addr: int) -> PrivateState:
        """The MESI state of ``addr`` in this hierarchy (I if absent)."""
        return self.states.get(addr, INVALID)

    def holds(self, addr: int) -> bool:
        """True when the block is valid anywhere in this hierarchy."""
        return addr in self.states

    def resident_blocks(self):
        """Yield (addr, state) for every valid block (for invariants),
        set by set, LRU first."""
        states = self.states
        for lines in self.l2.values():
            for addr in lines:
                yield addr, states[addr]
