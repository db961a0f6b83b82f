"""Set-associative tag array with 1-bit NRU replacement.

This array holds the slices of the baseline sparse directory
(:mod:`repro.directory.sparse`) and of the multi-grain directory
(:mod:`repro.directory.mgd`). The private caches keep their own LRU tag
lists (:mod:`repro.cache.private_cache`), and the tiny-directory slices
are ``_TinySlice`` way arrays (:mod:`repro.core.tiny_directory`).

The array stores tags, not line objects: each set is a list of tags in
way order, one dict maps every resident tag to its payload, and one set
holds the resident tags whose NRU reference bit is clear. A tag lives in
set ``tag % num_sets``, so a lookup is one dict probe and never scans a
set. The reference bits are kept as their complement because an insert
and every touching lookup set the bit, and only a full set's victim
search clears it: most resident tags are referenced, so the set of
unreferenced ones stays small.

The sparse and multi-grain directories probe these tables themselves on
their per-transaction paths (``_sets``, ``_payloads``,
``_unreferenced``), so that finding an entry is one call: a change to
the layout changes them too.
"""

from __future__ import annotations

from repro.errors import ConfigError


class SetAssocArray:
    """A set-associative array of tags and their payloads.

    Replacement is 1-bit not-recently-used, the paper's sparse-directory
    policy (Table I): an insert and a touching lookup set the tag's
    reference bit; the victim is the first unreferenced way in way
    order, and when every way is referenced the set's bits are cleared
    and the first way goes.

    Args:
        num_sets: number of sets; 1 makes the array fully associative.
        assoc: number of ways per set.
    """

    __slots__ = ("num_sets", "assoc", "_sets", "_payloads", "_unreferenced")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ConfigError(
                f"num_sets and assoc must be positive, got {num_sets}x{assoc}"
            )
        self.num_sets = num_sets
        self.assoc = assoc
        #: Set index -> resident tags in way order.
        self._sets: "dict[int, list[int]]" = {}
        #: Resident tag -> payload (never None).
        self._payloads: "dict[int, object]" = {}
        #: Resident tags whose NRU reference bit is clear.
        self._unreferenced: "set[int]" = set()

    def lookup(self, tag: int, touch: bool = True) -> object:
        """The payload stored under ``tag``, or None when absent.

        When ``touch`` is true a hit sets the tag's reference bit.
        """
        if touch and self._unreferenced:
            self._unreferenced.discard(tag)
        return self._payloads.get(tag)

    def insert(self, tag: int, payload: object) -> "tuple[int, object] | None":
        """Insert ``tag`` with ``payload``; returns the evicted
        ``(tag, payload)``, if any.

        The caller must have established that ``tag`` is not present.
        A full set gives up its first unreferenced way; when every way
        is referenced, the set's reference bits are cleared and the
        first way goes.
        """
        set_index = tag % self.num_sets
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = []
        evicted = None
        if len(lines) >= self.assoc:
            unreferenced = self._unreferenced
            for victim in lines:
                if victim in unreferenced:
                    break
            else:
                unreferenced.update(lines)
                victim = lines[0]
            lines.remove(victim)
            unreferenced.discard(victim)
            evicted = victim, self._payloads.pop(victim)
        lines.append(tag)
        self._payloads[tag] = payload
        return evicted

    def remove(self, tag: int) -> object:
        """Remove ``tag``; returns its payload, or None when absent."""
        payload = self._payloads.pop(tag, None)
        if payload is not None:
            self._sets[tag % self.num_sets].remove(tag)
            self._unreferenced.discard(tag)
        return payload

    def occupancy(self) -> int:
        """Total number of resident tags."""
        return len(self._payloads)

    def iter_lines(self):
        """Yield ``(tag, payload)`` for every resident tag, set by set in
        way order."""
        payloads = self._payloads
        for lines in self._sets.values():
            for tag in lines:
                yield tag, payloads[tag]
