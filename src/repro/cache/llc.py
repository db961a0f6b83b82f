"""Shared banked last-level cache with in-LLC coherence tracking support.

Each :class:`LLCBank` is one bank of the shared LLC (one per tile, Table I
of the paper). Beyond a plain set-associative data cache, a bank supports
the paper's mechanisms:

* **Corrupted blocks** (Table III/IV): a block whose (V, D) bits read
  (0, 1) has part of its data replaced by extended coherence state — the
  owner pointer or the sharer bitvector, the twelve STRAC/OAC bits, and a
  dirty flag for the underlying data.
* **Spilled tracking entries** (§IV-B1): an LLC way in the *same set* as a
  data block ``B`` can hold ``B``'s coherence tracking entry ``E_B``.
  ``B`` and ``E_B`` share a tag; the paper distinguishes them by the V
  bit, this model by the ``LLC_SPILLED_ENTRY`` state. The LRU update
  rule moves ``E_B`` to MRU *before* ``B`` so that ``E_B`` is always
  victimized first.
* **No-spill sample sets** (§IV-B2): sixteen sets per bank never admit
  spilled entries and provide the ``MR_no_spill`` estimate for the
  dynamic spill policy.

Per-residency statistics (maximum sharer count, forwarded shared reads)
are carried on the line so the harness can regenerate the paper's
motivation figures (Figs. 2, 7, 8, 9).
"""

from __future__ import annotations

from repro.coherence.info import CohInfo
from repro.core.stra import StraCounters
from repro.errors import ConfigError, ProtocolError
from repro.types import LLC_SPILLED_ENTRY, LLCState


class LLCLine:
    """One LLC way: either a data block or a spilled tracking entry
    (``state is LLC_SPILLED_ENTRY``)."""

    __slots__ = (
        "tag",
        "state",
        "coh",
        "stra",
        "underlying_dirty",
        "sharers_seen",
        "fwd_reads",
        "total_reads",
    )

    def __init__(self, tag: int, state: LLCState) -> None:
        self.tag = tag
        self.state = state
        #: Coherence tracking info; present for corrupted blocks and
        #: spilled entries, None otherwise.
        self.coh: "CohInfo | None" = None
        #: STRA counters travelling with the tracking info.
        self.stra: "StraCounters | None" = None
        #: True when the block's data (wherever authoritative) differs
        #: from memory, so eviction requires a DRAM write.
        self.underlying_dirty = False
        # -- per-residency statistics (data lines only) -----------------
        #: Bitmask of every core that held the block during residency
        #: (Fig. 2 counts the maximum number of *distinct* sharers a
        #: block experiences while resident).
        self.sharers_seen = 0
        #: Reads that found the block shared (forwarded under in-LLC).
        self.fwd_reads = 0
        #: All reads during residency (denominator of the STRA ratio).
        self.total_reads = 0

    def note_holders(self, coh) -> None:
        """Fold the block's current holders into the residency record."""
        self.sharers_seen |= coh.sharers
        if coh.owner is not None:
            self.sharers_seen |= 1 << coh.owner

    def distinct_sharers(self) -> int:
        """Distinct cores that held the block during this residency."""
        return bin(self.sharers_seen).count("1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LLCLine(tag={self.tag:#x}, {self.state.value})"


class LLCBank:
    """One bank of the shared LLC.

    Each set is a list of keys in recency order, LRU first: a data block
    is keyed by its address ``addr`` and a spilled entry by ``~addr``
    (negative, so the two never collide). One dict per bank maps each
    resident block's address to its :class:`LLCLine` and a second, small
    one does the same for spilled entries, so finding a line is a dict
    probe and reordering a set moves ints, not objects. A block lives in
    set ``(addr // bank_stride) % num_sets``.
    """

    __slots__ = (
        "num_sets",
        "assoc",
        "bank_stride",
        "_sets",
        "_blocks",
        "_spills",
        "sample_sets",
        "tag_lookups",
        "data_reads",
        "data_writes",
        "fills",
    )

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        bank_stride: int,
        no_spill_sample_sets: int = 16,
        bank_index: int = 0,
    ) -> None:
        if num_sets <= 0 or assoc <= 0 or bank_stride <= 0:
            raise ConfigError("LLC bank geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        #: Number of banks in the LLC; consecutive blocks stripe across
        #: banks, so the in-bank set index uses ``addr // bank_stride``.
        self.bank_stride = bank_stride
        #: Set index -> resident keys, LRU first.
        self._sets: "dict[int, list[int]]" = {}
        #: Block address -> data line.
        self._blocks: "dict[int, LLCLine]" = {}
        #: Block address -> spilled tracking entry.
        self._spills: "dict[int, LLCLine]" = {}
        # Spread the no-spill sample sets evenly across the bank, with a
        # per-bank offset so the same hot sets are not sampled everywhere
        # (sampled sets must be representative of the whole bank).
        sample_count = min(no_spill_sample_sets, max(1, num_sets // 4))
        if sample_count > 0 and no_spill_sample_sets > 0:
            stride = max(1, num_sets // sample_count)
            salt = (bank_index * 7 + 3) % stride
            #: Set indices that never admit spilled entries.
            self.sample_sets = frozenset(
                (salt + i * stride) % num_sets for i in range(sample_count)
            )
        else:
            self.sample_sets = frozenset()
        # -- activity counters (energy model and spill policy) ----------
        self.tag_lookups = 0
        self.data_reads = 0
        self.data_writes = 0
        self.fills = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def set_index(self, addr: int) -> int:
        """In-bank set index for block address ``addr``."""
        return (addr // self.bank_stride) % self.num_sets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> "tuple[LLCLine | None, LLCLine | None]":
        """Find the data line and spilled entry for ``addr``.

        Returns ``(data_line, spill_line)``; either may be None. Counts
        one tag lookup, touching or not. With ``touch``, recency is
        updated with the paper's ordering: the spilled entry first, then
        the data block, leaving the data block more recent.
        """
        self.tag_lookups += 1
        line = self._blocks.get(addr)
        spills = self._spills
        spill = spills.get(addr) if spills else None
        if touch:
            if spill is not None:
                keys = self._sets[(addr // self.bank_stride) % self.num_sets]
                key = ~addr
                if keys[-1] != key:
                    keys.remove(key)
                    keys.append(key)
                if line is not None:
                    keys.remove(addr)
                    keys.append(addr)
            elif line is not None:
                keys = self._sets[(addr // self.bank_stride) % self.num_sets]
                if keys[-1] != addr:
                    keys.remove(addr)
                    keys.append(addr)
        return line, spill

    def peek(self, addr: int) -> "tuple[LLCLine | None, LLCLine | None]":
        """Quiet :meth:`lookup`: no recency update, no activity counters.

        Used by the invariant checkers and the fault injector so that
        auditing a run never perturbs its statistics.
        """
        return self._blocks.get(addr), self._spills.get(addr)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_block(self, addr: int, state: LLCState) -> "tuple[LLCLine, LLCLine | None]":
        """Allocate a data line for ``addr``; returns (line, victim).

        The caller (the home controller) is responsible for handling the
        victim: writing back dirty data, reconstructing corrupted blocks,
        transferring or dropping spilled entries.
        """
        if state is LLC_SPILLED_ENTRY:
            raise ProtocolError("use insert_spill for spilled tracking entries")
        blocks = self._blocks
        if addr in blocks:
            raise ProtocolError(f"block {addr:#x} is already resident")
        set_index = (addr // self.bank_stride) % self.num_sets
        keys = self._sets.get(set_index)
        if keys is None:
            keys = self._sets[set_index] = []
        victim = None
        if len(keys) >= self.assoc:
            key = keys.pop(0)
            victim = blocks.pop(key) if key >= 0 else self._spills.pop(~key)
        line = blocks[addr] = LLCLine(addr, state)
        keys.append(addr)
        self.fills += 1
        self.data_writes += 1
        return line, victim

    def insert_spill(self, addr: int, coh: CohInfo, stra: StraCounters) -> "tuple[LLCLine | None, LLCLine | None]":
        """Allocate a spilled tracking entry for ``addr``.

        Returns ``(spill_line, victim)``. Refuses (returns ``(None,
        None)``) in no-spill sample sets. The spilled entry is inserted
        *below* its companion data block in recency order when the block
        is resident, preserving the victimize-``E_B``-first rule.
        """
        set_index = (addr // self.bank_stride) % self.num_sets
        if set_index in self.sample_sets:
            return None, None
        spills = self._spills
        if addr in spills:
            raise ProtocolError(f"block {addr:#x} already has a spilled entry")
        keys = self._sets.get(set_index)
        if keys is None:
            keys = self._sets[set_index] = []
        victim = None
        if len(keys) >= self.assoc:
            key = keys.pop(0)
            victim = self._blocks.pop(key) if key >= 0 else spills.pop(~key)
        spill = spills[addr] = LLCLine(addr, LLC_SPILLED_ENTRY)
        spill.coh = coh
        spill.stra = stra
        # Keep E_B just below B in recency order wherever B currently is,
        # so B can never be victimized before E_B.
        if addr in self._blocks:
            keys.insert(keys.index(addr), ~addr)
        else:
            keys.append(~addr)
        self.data_writes += 1
        return spill, victim

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------

    def remove(self, line: LLCLine) -> None:
        """Remove ``line`` from its set (it must be resident)."""
        tag = line.tag
        if line.state is LLC_SPILLED_ENTRY:
            lines, key = self._spills, ~tag
        else:
            lines, key = self._blocks, tag
        if lines.get(tag) is not line:
            raise ProtocolError(f"line {line!r} is not resident")
        del lines[tag]
        self._sets[(tag // self.bank_stride) % self.num_sets].remove(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident lines (data + spilled)."""
        return len(self._blocks) + len(self._spills)

    def iter_lines(self):
        """Yield every resident line, set by set in the order the sets
        were first filled, LRU first within a set."""
        blocks = self._blocks
        spills = self._spills
        for keys in self._sets.values():
            for key in keys:
                yield blocks[key] if key >= 0 else spills[~key]
