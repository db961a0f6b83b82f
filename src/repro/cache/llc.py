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
  bit, this model by an ``is_spill`` flag. The LRU update rule moves
  ``E_B`` to MRU *before* ``B`` so that ``E_B`` is always victimized
  first.
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
    """One LLC way: either a data block or a spilled tracking entry."""

    __slots__ = (
        "tag",
        "state",
        "coh",
        "stra",
        "underlying_dirty",
        "is_spill",
        "sharers_seen",
        "fwd_reads",
        "total_reads",
    )

    def __init__(self, tag: int, state: LLCState, is_spill: bool = False) -> None:
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
        self.is_spill = is_spill
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
        kind = "spill" if self.is_spill else self.state.value
        return f"LLCLine(tag={self.tag:#x}, {kind})"


class LLCBank:
    """One bank of the shared LLC."""

    __slots__ = (
        "num_sets",
        "assoc",
        "bank_stride",
        "_sets",
        "_sample_sets",
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
        self._sets: "dict[int, list[LLCLine]]" = {}
        # Spread the no-spill sample sets evenly across the bank, with a
        # per-bank offset so the same hot sets are not sampled everywhere
        # (sampled sets must be representative of the whole bank).
        sample_count = min(no_spill_sample_sets, max(1, num_sets // 4))
        if sample_count > 0 and no_spill_sample_sets > 0:
            stride = max(1, num_sets // sample_count)
            salt = (bank_index * 7 + 3) % stride
            self._sample_sets = frozenset(
                (salt + i * stride) % num_sets for i in range(sample_count)
            )
        else:
            self._sample_sets = frozenset()
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

    def is_no_spill_set(self, set_index: int) -> bool:
        """True for the sampled sets that never admit spilled entries."""
        return set_index in self._sample_sets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> "tuple[LLCLine | None, LLCLine | None]":
        """Find the data line and spilled entry for ``addr``.

        Returns ``(data_line, spill_line)``; either may be None. With
        ``touch``, recency is updated with the paper's ordering: the
        spilled entry first, then the data block, leaving the data block
        more recent.
        """
        self.tag_lookups += 1
        lines = self._sets.get((addr // self.bank_stride) % self.num_sets)
        if not lines:
            return None, None
        data_line = None
        spill_line = None
        for line in lines:
            if line.tag == addr:
                if line.is_spill:
                    spill_line = line
                else:
                    data_line = line
        if touch:
            if spill_line is not None:
                self._to_mru(lines, spill_line)
            if data_line is not None:
                self._to_mru(lines, data_line)
        return data_line, spill_line

    def peek(self, addr: int) -> "tuple[LLCLine | None, LLCLine | None]":
        """Quiet :meth:`lookup`: no recency update, no activity counters.

        Used by the invariant checkers and the fault injector so that
        auditing a run never perturbs its statistics.
        """
        lines = self._sets.get(self.set_index(addr))
        data_line = None
        spill_line = None
        if lines:
            for line in lines:
                if line.tag == addr:
                    if line.is_spill:
                        spill_line = line
                    else:
                        data_line = line
        return data_line, spill_line

    @staticmethod
    def _to_mru(lines: "list[LLCLine]", line: LLCLine) -> None:
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)

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
        lines = self._sets.setdefault((addr // self.bank_stride) % self.num_sets, [])
        victim = None
        if len(lines) >= self.assoc:
            victim = lines.pop(0)
        line = LLCLine(addr, state)
        lines.append(line)
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
        set_index = self.set_index(addr)
        if self.is_no_spill_set(set_index):
            return None, None
        lines = self._sets.setdefault(set_index, [])
        victim = None
        if len(lines) >= self.assoc:
            victim = lines.pop(0)
        spill = LLCLine(addr, LLC_SPILLED_ENTRY, is_spill=True)
        spill.coh = coh
        spill.stra = stra
        # Keep E_B just below B in recency order wherever B currently is,
        # so B can never be victimized before E_B.
        companion_index = None
        for index, line in enumerate(lines):
            if line.tag == addr and not line.is_spill:
                companion_index = index
                break
        if companion_index is not None:
            lines.insert(companion_index, spill)
        else:
            lines.append(spill)
        self.data_writes += 1
        return spill, victim

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------

    def remove(self, line: LLCLine) -> None:
        """Remove ``line`` from its set (it must be resident)."""
        lines = self._sets.get(self.set_index(line.tag))
        if lines is None or line not in lines:
            raise ProtocolError(f"line {line!r} is not resident")
        lines.remove(line)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident lines (data + spilled)."""
        return sum(len(lines) for lines in self._sets.values())

    def iter_lines(self):
        """Yield every resident line."""
        for lines in self._sets.values():
            yield from lines
