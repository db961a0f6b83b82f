"""Structured trace events.

A :class:`TraceEvent` is one observation of the simulator doing
something interesting: a memory transaction starting or finishing, a
request reaching its home, a tracking structure allocating or evicting
an entry, a spill, a back-invalidation, an STRA classification, an
injected fault, an audit window closing, or a recovery repair. Events
are *structured* — a short ``group:action`` kind string plus typed
context fields — so a trace can be filtered, aggregated, and replayed
mechanically instead of being grepped out of log prose.

:data:`EVENT_KINDS` is the one vocabulary: tracing, transition
coverage (:mod:`repro.verify.coverage`) and the flight recorder
(:mod:`repro.resilience.recorder`) all read the same kinds. The table
of kinds, with where each is emitted and its extra fields, lives in
``docs/telemetry.md``; ``tools/check_docs.py`` fails CI when the two
disagree.

Serialization is line-oriented JSON (JSONL): one
:func:`TraceEvent.to_dict` object per line, reversible bit-exactly via
:func:`TraceEvent.from_dict` — the round trip is pinned by
``tests/test_telemetry.py``.
"""

from __future__ import annotations

#: Every event kind the simulator emits, grouped as in docs/telemetry.md.
EVENT_KINDS: "tuple[str, ...]" = (
    # The engine's own events, sent only to the tracer run_trace was given.
    "txn:start",
    "txn:finish",
    "measure:start",
    "audit:window",
    "audit:violation",
    # Requests reaching the home controller.
    "req:read",
    "req:write",
    "req:ifetch",
    "req:upgrade",
    "req:evict_notice",
    # Requester-side MESI transitions, derived by the verify harness.
    "mesi:I->E:read",
    "mesi:I->S:read",
    "mesi:I->S:ifetch",
    "mesi:I->M:write",
    "mesi:S->M:write",
    "mesi:E->M:write",
    "mesi:S->S:read",
    "mesi:S->S:ifetch",
    "mesi:E->E:read",
    "mesi:E->E:ifetch",
    "mesi:M->M:read",
    "mesi:M->M:ifetch",
    "mesi:M->M:write",
    # Remote invalidations by the sparse-directory family.
    "inval:M->I",
    "inval:E->I",
    "inval:S->I",
    # Sparse directory.
    "dir:alloc",
    "dir:evict",
    "dir:drop",
    "dir:back_invalidate",
    "dir:fwd_exclusive",
    "dir:write_shared",
    "dir:upgrade",
    # In-LLC tracking.
    "llc:mark_tracked",
    "llc:restore",
    "llc:evict_tracked",
    "llc:evict_dirty",
    "llc:lengthened_read",
    "llc:back_invalidate",
    # Tiny directory and spilling.
    "tiny:hit",
    "tiny:spill_hit",
    "tiny:fwd_refill",
    "tiny:unspill",
    "tiny:alloc",
    "tiny:evict",
    "tiny:decline",
    "tiny:spill",
    "tiny:rehome_spill",
    "tiny:rehome_corrupt",
    "tiny:recall",
    "stra:classify",
    # Multi-grain directory.
    "mgd:region_alloc",
    "mgd:region_extend",
    "mgd:region_demote",
    "mgd:demote_alloc",
    "mgd:region_shrink",
    "mgd:block_alloc",
    "mgd:evict_region",
    # Stash directory.
    "stash:stash",
    "stash:recover",
    "stash:unstash",
    # Shared-only directory (the Fig. 3 idealization).
    "shared_only:private",
    "shared_only:promote",
    "shared_only:demote",
    # Injected faults (repro.resilience.faults.FaultKind values).
    "fault:drop_private_copy",
    "fault:flip_sharer_bit",
    "fault:lose_eviction_notice",
    "fault:corrupt_directory_entry",
    "fault:corrupt_tiny_entry",
    # Self-healing.
    "recovery:repair",
)


class TraceEvent:
    """One structured simulator observation.

    ``seq`` is a per-tracer monotonic sequence number (emission order),
    ``kind`` one of :data:`EVENT_KINDS`, and ``cycle``/``core``/``addr``
    the simulated context where known. Anything event-specific rides in
    ``data``.
    """

    __slots__ = ("seq", "kind", "cycle", "core", "addr", "data")

    def __init__(
        self,
        seq: int,
        kind: str,
        cycle: "int | None" = None,
        core: "int | None" = None,
        addr: "int | None" = None,
        data: "dict | None" = None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.cycle = cycle
        self.core = core
        self.addr = addr
        self.data = data or {}

    def to_dict(self) -> dict:
        """A compact JSON-serializable form (omits absent context)."""
        payload: dict = {"seq": self.seq, "kind": self.kind}
        if self.cycle is not None:
            payload["cycle"] = self.cycle
        if self.core is not None:
            payload["core"] = self.core
        if self.addr is not None:
            payload["addr"] = self.addr
        if self.data:
            payload["data"] = self.data
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            seq=payload["seq"],
            kind=payload["kind"],
            cycle=payload.get("cycle"),
            core=payload.get("core"),
            addr=payload.get("addr"),
            data=dict(payload.get("data") or {}),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # pragma: no cover - events are not keys
        return hash((self.seq, self.kind, self.addr))

    def __repr__(self) -> str:
        parts = [f"#{self.seq} {self.kind}"]
        if self.cycle is not None:
            parts.append(f"@{self.cycle}")
        if self.core is not None:
            parts.append(f"core={self.core}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        parts.extend(f"{key}={value}" for key, value in self.data.items())
        return " ".join(parts)
