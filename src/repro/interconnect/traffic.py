"""Interconnect traffic accounting.

The paper's Figure 5 splits traffic into three message classes:

* **processor** — private-cache miss requests and their responses,
* **writeback** — eviction notices from the cores and their
  acknowledgements,
* **coherence** — requests forwarded by the home LLC bank (interventions,
  invalidations) and the busy-clear / acknowledgement messages they
  generate.

Message sizes follow the usual convention: a control message is one
8-byte flit; a data message carries the 64-byte block plus the header.
Partial-reconstruction messages (the ``4 + ceil(log2 C)`` borrowed bits an
E-state eviction carries back to the LLC, Section III-B) round up to the
header plus two bytes.
"""

from __future__ import annotations

import enum

#: Size in bytes of a header-only control message.
CONTROL_BYTES = 8

#: Size in bytes of a full data-carrying message (64-byte block + header).
DATA_BYTES = 72

#: Size of an eviction notice that carries the borrowed coherence bits.
PARTIAL_BYTES = 10


class MessageClass(enum.Enum):
    """Traffic class of an interconnect message (paper Fig. 5)."""

    PROCESSOR = "processor"
    WRITEBACK = "writeback"
    COHERENCE = "coherence"


# The members under module-level names, for per-transaction code (see
# repro.types: class-attribute access to an enum member is slow).
PROCESSOR = MessageClass.PROCESSOR
WRITEBACK = MessageClass.WRITEBACK
COHERENCE = MessageClass.COHERENCE

# Each class's indexes into a meter's counter lists. Attributes on the
# member, because hashing an Enum member runs ``Enum.__hash__`` in Python.
# ``slot`` indexes the per-class lists; a meter counts messages kind by
# kind (control, data, partial), each kind one slot per class, so the
# class's control, data and partial counts sit at ``slot``,
# ``data_slot`` and ``partial_slot``.
for _slot, _member in enumerate(MessageClass):
    _member.slot = _slot
    _member.data_slot = _slot + len(MessageClass)
    _member.partial_slot = _slot + 2 * len(MessageClass)
del _slot, _member


class TrafficMeter:
    """Accumulates interconnect messages and bytes per :class:`MessageClass`.

    The home controllers count several messages per transaction, so
    :meth:`control`, :meth:`data` and :meth:`partial` each add to one
    message count per (class, kind) in a flat list; the bytes are
    derived from those counts when read. Messages of any other size
    (:meth:`record`) and a loaded snapshot (:meth:`load`) land in one
    bytes/messages pair per class.
    """

    __slots__ = ("_counts", "_bytes", "_messages")

    def __init__(self) -> None:
        self._counts = [0] * (3 * len(MessageClass))
        self._bytes = [0] * len(MessageClass)
        self._messages = [0] * len(MessageClass)

    def clear(self) -> None:
        """Zero all counters in place (warmup boundary)."""
        for counters in (self._counts, self._bytes, self._messages):
            counters[:] = [0] * len(counters)

    def record(self, message_class: MessageClass, size_bytes: int, count: int = 1) -> None:
        """Record ``count`` messages of ``size_bytes`` each."""
        slot = message_class.slot
        self._bytes[slot] += size_bytes * count
        self._messages[slot] += count

    def control(self, message_class: MessageClass, count: int = 1) -> None:
        """Record control (header-only) messages."""
        self._counts[message_class.slot] += count

    def data(self, message_class: MessageClass, count: int = 1) -> None:
        """Record full data messages."""
        self._counts[message_class.data_slot] += count

    def partial(self, message_class: MessageClass, count: int = 1) -> None:
        """Record partial-block reconstruction messages."""
        self._counts[message_class.partial_slot] += count

    def bytes_for(self, message_class: MessageClass) -> int:
        """Total bytes recorded for ``message_class``."""
        counts = self._counts
        return (
            CONTROL_BYTES * counts[message_class.slot]
            + DATA_BYTES * counts[message_class.data_slot]
            + PARTIAL_BYTES * counts[message_class.partial_slot]
            + self._bytes[message_class.slot]
        )

    def messages_for(self, message_class: MessageClass) -> int:
        """Total message count recorded for ``message_class``."""
        counts = self._counts
        return (
            counts[message_class.slot]
            + counts[message_class.data_slot]
            + counts[message_class.partial_slot]
            + self._messages[message_class.slot]
        )

    @property
    def total_bytes(self) -> int:
        """Total bytes across all classes."""
        return sum(self.bytes_for(cls) for cls in MessageClass)

    def as_dict(self) -> "dict[str, int]":
        """Bytes per class keyed by the class value (for reports)."""
        return {cls.value: self.bytes_for(cls) for cls in MessageClass}

    def dump(self) -> "dict[str, dict[str, int]]":
        """Full serializable snapshot (bytes and message counts)."""
        return {
            "bytes": self.as_dict(),
            "messages": {cls.value: self.messages_for(cls) for cls in MessageClass},
        }

    @classmethod
    def load(cls, payload: "dict[str, dict[str, int]]") -> "TrafficMeter":
        """Rebuild a meter from :meth:`dump` output."""
        meter = cls()
        for name, value in payload.get("bytes", {}).items():
            meter._bytes[MessageClass(name).slot] = value
        for name, value in payload.get("messages", {}).items():
            meter._messages[MessageClass(name).slot] = value
        return meter
