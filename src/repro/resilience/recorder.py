"""Bounded per-address transaction flight recorder.

A :class:`FlightRecorder` is an observer on the one channel the home
controllers announce protocol transitions through
(:func:`repro.telemetry.attach_observer`): requests, invalidations,
eviction notices, allocations, back-invalidations, spills, injected
faults. It keeps the last few :class:`~repro.telemetry.TraceEvent`
records of each address. When a protocol invariant trips, the auditor
attaches the records for the corrupted address to the raised
:class:`~repro.errors.InvariantViolation`, so the diagnostic shows *how*
the block got into the bad state — not just that it is bad.

Without auditing no recorder is attached: the homes' disabled-observer
guard keeps the run bit-identical to one without the recorder at all.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.telemetry import TraceEvent


class FlightRecorder:
    """Keeps the last ``depth`` events of each recently-seen address.

    Bounded on both axes: each address keeps a ``depth``-deep ring, and at
    most ``max_addresses`` addresses are retained (least recently recorded
    are forgotten first), so arbitrarily long runs cannot grow the
    recorder without bound. Sequence numbers are global across addresses.
    """

    enabled = True

    def __init__(self, depth: int = 8, max_addresses: int = 4096) -> None:
        self.depth = max(1, depth)
        self.max_addresses = max(1, max_addresses)
        self.seq = 0
        self._per_addr: "OrderedDict[int, deque[TraceEvent]]" = OrderedDict()

    def emit(
        self,
        kind: str,
        cycle: "int | None" = None,
        core: "int | None" = None,
        addr: "int | None" = None,
        **data,
    ) -> None:
        self.seq += 1
        ring = self._per_addr.get(addr)
        if ring is None:
            ring = deque(maxlen=self.depth)
            self._per_addr[addr] = ring
            if len(self._per_addr) > self.max_addresses:
                self._per_addr.popitem(last=False)
        else:
            self._per_addr.move_to_end(addr)
        ring.append(TraceEvent(self.seq, kind, cycle, core, addr, data))

    def history(self, addr: int) -> "tuple[TraceEvent, ...]":
        ring = self._per_addr.get(addr)
        return tuple(ring) if ring else ()
