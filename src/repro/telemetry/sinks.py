"""Trace sinks, the tracer front-end, and the one observer channel.

Every home controller carries one ``observer`` slot, set to the shared
disabled :data:`NULL_TRACER` by default. Each protocol transition is
emitted once, behind one inline ``if self.observer.enabled:`` guard,
as ``observer.emit(kind, cycle=None, core=None, addr=None, **data)``
with a kind from :data:`~repro.telemetry.events.EVENT_KINDS`. An
unobserved run executes the same instructions it always did and stays
bit-identical (pinned by ``tests/test_telemetry.py``).

An *observer* is anything with an ``enabled`` flag and that ``emit``
signature: a :class:`Tracer`, a
:class:`~repro.verify.coverage.CoverageMap`, a
:class:`~repro.resilience.recorder.FlightRecorder`.
:func:`attach_observer` installs one on a system; attaching a second
fans every emit out to both.

A *sink* is where a tracer's events go. Three backends:

* :class:`NullSink` — drops everything.
* :class:`RingBufferSink` — keeps the last ``capacity`` events in
  memory; cheap enough for tests and post-mortem "what just happened"
  inspection of arbitrarily long runs.
* :class:`JsonlSink` — appends one JSON object per event to a file;
  the durable backend behind ``--trace`` and
  ``tools/trace_report.py``.

Anything with ``write(event)`` and ``close()`` is a valid sink — the
protocol is structural, no registration required.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from repro.telemetry.events import TraceEvent

#: Default JSONL trace path when ``REPRO_TRACE_OUT`` is unset.
DEFAULT_TRACE_OUT = "trace.jsonl"

#: Default ring-buffer capacity (events retained).
DEFAULT_RING_CAPACITY = 65536


class NullSink:
    """Backend that drops every event."""

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - no-op
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        from collections import deque

        self.capacity = max(1, int(capacity))
        self._ring: "deque[TraceEvent]" = deque(maxlen=self.capacity)

    def write(self, event: TraceEvent) -> None:
        self._ring.append(event)

    def close(self) -> None:
        pass

    def events(self) -> "list[TraceEvent]":
        """The retained events, oldest first."""
        return list(self._ring)


class JsonlSink:
    """Appends one JSON object per event to ``path``.

    The file is opened lazily on the first event and in append mode, so
    several runs in one process accumulate into a single trace, and a
    tracer that never fires never creates the file.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = os.fspath(path)
        self._handle = None

    def write(self, event: TraceEvent) -> None:
        if self._handle is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a")
        self._handle.write(
            json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class NullTracer:
    """Observation disabled: the shared default, every guard short-circuits."""

    enabled = False

    def emit(self, kind: str, **context) -> None:  # pragma: no cover - no-op
        pass

    def close(self) -> None:
        pass


#: The shared disabled observer every home controller starts with.
NULL_TRACER = NullTracer()


class Tracer:
    """Stamps sequence numbers onto events and hands them to a sink."""

    enabled = True

    def __init__(self, sink) -> None:
        self.sink = sink
        self.seq = 0
        self.emitted = 0

    def emit(
        self,
        kind: str,
        cycle: "int | None" = None,
        core: "int | None" = None,
        addr: "int | None" = None,
        **data,
    ) -> None:
        self.seq += 1
        self.emitted += 1
        self.sink.write(TraceEvent(self.seq, kind, cycle, core, addr, data))

    def close(self) -> None:
        self.sink.close()


class Fanout:
    """Several observers attached to one system: each emit reaches all."""

    enabled = True

    def __init__(self, *observers) -> None:
        self.observers = observers

    def emit(
        self,
        kind: str,
        cycle: "int | None" = None,
        core: "int | None" = None,
        addr: "int | None" = None,
        **data,
    ) -> None:
        for observer in self.observers:
            observer.emit(kind, cycle, core, addr, **data)


def attach_observer(system, observer) -> None:
    """Attach ``observer`` to the protocol transitions of ``system``.

    Observers accumulate: attaching a second one installs a
    :class:`Fanout` over both, and attaching one already present is a
    no-op. Attaching a disabled observer (:data:`NULL_TRACER`) detaches
    them all and restores the off state.
    """
    home = system.home
    current = home.observer
    if not observer.enabled or not current.enabled:
        home.observer = observer
    elif isinstance(current, Fanout):
        if observer not in current.observers:
            home.observer = Fanout(*current.observers, observer)
    elif current is not observer:
        home.observer = Fanout(current, observer)


# ----------------------------------------------------------------------
# Environment mirror and worker fan-in
# ----------------------------------------------------------------------

def trace_base_path() -> str:
    """The JSONL trace destination (``REPRO_TRACE_OUT`` or the default)."""
    return os.environ.get("REPRO_TRACE_OUT", "").strip() or DEFAULT_TRACE_OUT


def trace_output_path() -> str:
    """Where *this process* should write its JSONL trace.

    Pool workers (flagged by ``REPRO_TRACE_WORKER``, set by the
    :mod:`repro.parallel` worker initializer) write per-process
    ``<base>.<pid>.part`` files; :func:`merge_worker_traces` fans them
    into the base file afterwards. Everyone else writes the base file
    directly.
    """
    base = trace_base_path()
    if os.environ.get("REPRO_TRACE_WORKER"):
        return f"{base}.{os.getpid()}.part"
    return base


def merge_worker_traces(base: "str | None" = None) -> int:
    """Append every ``<base>.*.part`` worker trace into ``<base>``.

    Parts are concatenated in sorted filename order (stable across
    reruns) and deleted once merged. Returns the number of merged part
    files. Within one part, events keep their emission order; across
    parts the order is by worker, not by simulated time — consumers
    that need a global order sort on ``(addr, seq)`` or ``cycle``, as
    ``tools/trace_report.py`` does.
    """
    base = base or trace_base_path()
    parts = sorted(glob.glob(f"{base}.*.part"))
    if not parts:
        return 0
    with open(base, "a") as out:
        for part in parts:
            with open(part) as handle:
                out.write(handle.read())
            os.unlink(part)
    return len(parts)


def jsonl_trace_enabled() -> bool:
    """True when ``REPRO_TRACE`` selects the JSONL backend."""
    raw = os.environ.get("REPRO_TRACE", "").strip().lower()
    return raw in ("jsonl", "on", "1", "yes", "true")


def tracer_from_env() -> "Tracer | None":
    """Build a tracer from ``REPRO_TRACE``, or None when disabled.

    Accepted values: ``jsonl`` (or ``on``/``1``/``yes``/``true``) for
    the JSONL backend writing to ``REPRO_TRACE_OUT`` (default
    ``trace.jsonl``); ``ring`` or ``ring:N`` for an in-memory ring
    buffer of N events; ``off``/``0``/``no``/``false``/unset to
    disable. Anything else disables tracing too, but *loudly*: a
    warning on stderr, never a silent None, mirroring
    :func:`repro.resilience.auditor.auditor_from_env`.
    """
    raw = os.environ.get("REPRO_TRACE", "").strip().lower()
    if not raw or raw in ("off", "0", "no", "false"):
        return None
    if raw in ("jsonl", "on", "1", "yes", "true"):
        return Tracer(JsonlSink(trace_output_path()))
    name, _, arg = raw.partition(":")
    if name == "ring":
        capacity = DEFAULT_RING_CAPACITY
        if arg:
            try:
                capacity = int(arg)
            except ValueError:
                capacity = -1
        if capacity > 0:
            return Tracer(RingBufferSink(capacity))
    print(
        f"repro: ignoring invalid REPRO_TRACE={raw!r} (expected jsonl, "
        f"ring[:N], or off); tracing is DISABLED",
        file=sys.stderr,
    )
    return None


def read_trace(path: "str | os.PathLike") -> "list[TraceEvent]":
    """Parse a JSONL trace file back into :class:`TraceEvent` records.

    A torn trailing line (a run killed mid-write) is tolerated and
    skipped, matching the sweep journal's crash-tolerance convention.
    """
    events: "list[TraceEvent]" = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError):
                continue
    return events
