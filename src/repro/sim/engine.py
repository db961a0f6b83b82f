"""Trace-driven execution engine.

Each core executes its access stream with a private clock: an access
costs its ``gap`` (compute cycles since the previous access) plus the
memory latency the system reports. The engine always advances the core
with the smallest clock, which interleaves the streams the way a real
machine's memory system would observe them (fast cores race ahead until
their memory stalls let others catch up). Execution time is the largest
final core clock — the parallel region ends when the slowest thread
finishes, matching the paper's whole-ROI execution-time metric.

When a :class:`~repro.resilience.auditor.ProtocolAuditor` is supplied,
the engine re-verifies every protocol invariant each ``audit_interval``
accesses (and once more at end of trace), so a corruption raises an
:class:`~repro.errors.InvariantViolation` within one audit window
instead of silently poisoning the rest of the run. A
:class:`~repro.verify.oracle.ValueOracle` can likewise be threaded
through: each access is bracketed by a quiet pre-state probe and a
post-access value check, validating every observed load against the
sequentially-consistent reference memory.

The loop also honours the harness deadline
(:mod:`repro.sim.deadline`): every ``CHECK_STRIDE`` accesses it checks
the armed wall-clock limit and raises
:class:`~repro.errors.RunTimeoutError` once exceeded, which is what
makes per-run timeouts work inside process-pool workers. It is the
engine's one wall-clock limit. A run pauses the cyclic garbage
collector (:func:`~repro.sim.deadline.collector_paused`): nothing it
allocates per access or per transaction takes part in a reference
cycle, so refcounting frees all of it.

There is one loop for every run. An unobserved run takes the inlined
private-hit path: a hit costs an L1 list test, a state-dict lookup and
batched counters, with no :meth:`System.access` call. The auditor, the
oracle, an enabled tracer and a fault injector each need to see every
access, so an *observed* run sends each access through
:meth:`System.access`, bracketed by the per-access hooks. The two paths
produce bit-identical statistics; the tests hold the engine to a
per-access reference loop kept in ``tests/reference_engine.py``.
"""

from __future__ import annotations

import heapq

from repro.errors import InvariantViolation, ProtocolError
from repro.sim.deadline import CHECK_STRIDE, check_deadline, collector_paused
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.telemetry import NULL_TRACER, attach_observer
from repro.types import AccessKind, PrivateState


class TraceEngine:
    """Interleaves per-core access streams over a :class:`System`.

    ``streams[c]`` is core ``c``'s stream, a list of ``(addr, kind,
    gap)`` tuples; no more streams than the system has cores. An access
    carries no core id, so none can name a core outside the system.

    ``warmup_fraction`` of the accesses are executed to populate the
    caches and directories but excluded from the reported statistics,
    mirroring the paper's practice of measuring only the region of
    interest after warmup. The warmup window is clamped so that at least
    one access is always measured (guarding against zero or negative
    measurement windows on very short traces).
    """

    def __init__(
        self,
        system: System,
        streams: "list[list[tuple]]",
        warmup_fraction: float = 0.4,
        auditor=None,
        oracle=None,
        tracer=None,
    ) -> None:
        if len(streams) > system.config.num_cores:
            raise ValueError(
                f"{len(streams)} streams for {system.config.num_cores} cores"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.streams = streams
        self.warmup_fraction = warmup_fraction
        self.auditor = auditor
        self.oracle = oracle
        #: Hears the protocol transitions (attached to the system like any
        #: observer) plus the engine's own per-access ``txn:*``,
        #: ``measure:start`` and ``audit:*`` events, which go only here.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Accesses the last :meth:`run` executed, in total and per
        #: stream. Both are set when the run returns or raises; an access
        #: counts once :meth:`System.access` has returned it.
        self.processed = 0
        self.executed = [0] * len(streams)

    def _audit(self, system) -> None:
        """One audit window; a violation is traced, then raised."""
        try:
            self.auditor.audit(system)
        except InvariantViolation as err:
            if self.tracer.enabled:
                self.tracer.emit(
                    "audit:violation", addr=err.addr, error=err.message
                )
            raise
        if self.tracer.enabled:
            self.tracer.emit("audit:window", audits=self.auditor.audits)

    def run(self, limit: "int | None" = None) -> SimStats:
        """Run the streams and return finalized stats.

        ``limit`` stops the run after that many accesses (every access
        when None). The warmup window is a fraction of the accesses the
        run executes, so a bounded run equals a full run of the streams
        cut at :attr:`executed`. The cyclic collector is paused for the
        run, observed or not, and its finalize.

        An unobserved access mirrors :meth:`System._access` exactly, but
        a private hit costs an inlined L1 list test, one state-dict
        lookup and a handful of local-variable updates — no probe call,
        no per-access stats method calls, no home dispatch. The inlined
        lookup is the literal twin of :meth:`PrivateCore.probe` (same
        recency touches, same L1 promotion, same silent E->M upgrade,
        same inclusion check). A miss's fill and an upgrade's completion
        are the literal twins of :meth:`PrivateCore.fill` and
        :meth:`PrivateCore.complete_upgrade`, so a miss makes no call
        into the private hierarchy; the L2 victim goes to the home's
        eviction notice as an address and a state. The
        batched counters commute with everything the miss path touches,
        so flushing them at the warmup boundary and at end of trace
        yields the statistics per-access counting would. Each access
        hands the core's next one back to the heap with one
        ``heappushpop``, which returns the same earliest access a push
        and a pop would. An access costs one tuple unpack to read.
        """
        # A with block, not a decorator: a decorated run would carry the
        # __wrapped__ attribute by which perfbench/spans.py recognizes
        # its own timing wrappers.
        with collector_paused():
            return self._run(limit)

    def _run(self, limit: "int | None") -> SimStats:
        """:meth:`run`'s loop, entered with the collector paused."""
        system = self.system
        stats = system.stats
        config = system.config
        home = system.home
        cores = system.cores
        streams = self.streams
        auditor = self.auditor
        oracle = self.oracle
        tracer = self.tracer
        tracing = tracer.enabled
        observed = (
            auditor is not None
            or oracle is not None
            or tracing
            or system.fault_injector is not None
        )
        if auditor is not None:
            auditor.install(system)
        if tracing:
            attach_observer(system, tracer)
        access = system.access
        l1_latency = config.l1_latency
        hit_latency = config.l1_latency + config.l2_latency
        read_kind = AccessKind.READ
        write_kind = AccessKind.WRITE
        shared_state = PrivateState.SHARED
        exclusive_state = PrivateState.EXCLUSIVE
        modified_state = PrivateState.MODIFIED
        invalid_state = PrivateState.INVALID
        handle_access = home.handle_access
        handle_eviction = home.handle_private_eviction
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        # Per-core lookup tables: (il1, dl1, l2, states). Every core has
        # the geometry the config gives.
        l1_sets = config.l1_sets
        l1_assoc = config.l1_assoc
        l2_sets = config.l2_sets
        l2_assoc = config.l2_assoc
        core_tables = [(core.il1, core.dl1, core.l2, core.states) for core in cores]
        total = sum(len(stream) for stream in streams)
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            total = min(total, limit)
        warmup_left = int(total * self.warmup_fraction)
        if total and warmup_left >= total:
            # Degenerate fraction/rounding: always measure >= 1 access.
            warmup_left = total - 1
        # The access counts of the next deadline check, audit window and
        # warmup boundary, and of the nearest event of any kind (one of
        # those or the last access), so that an access makes one
        # comparison for all of them.
        never = total + 1
        next_check = CHECK_STRIDE
        interval = auditor.interval if auditor is not None else never
        next_audit = interval
        next_warmup = warmup_left or never
        next_event = min(next_check, next_audit, next_warmup, total)
        heap = [
            (0, core, 0)
            for core, stream in enumerate(streams)
            if stream
        ]
        heapq.heapify(heap)
        finish = 0
        measure_start = 0
        processed = 0
        # Batched access counters (flushed into stats below).
        reads = writes = ifetches = l1_hits = l2_hits = 0
        item = heappop(heap) if total else None
        try:
            while item is not None:
                clock, core_id, index = item
                stream = streams[core_id]
                addr, kind, gap = stream[index]
                issue_time = clock + gap
                if observed:
                    if tracing:
                        tracer.emit(
                            "txn:start",
                            cycle=issue_time,
                            core=core_id,
                            addr=addr,
                            op=kind.name,
                        )
                    pre_state = (
                        oracle.pre_state(system, core_id, addr)
                        if oracle is not None
                        else None
                    )
                    latency = access(core_id, addr, kind, issue_time)
                    processed += 1
                    if oracle is not None:
                        oracle.observe(system, core_id, addr, kind, pre_state)
                    done = issue_time + latency
                    if tracing:
                        tracer.emit(
                            "txn:finish",
                            cycle=done,
                            core=core_id,
                            addr=addr,
                            latency=latency,
                        )
                else:
                    il1, dl1, l2, states = core_tables[core_id]
                    if kind is read_kind:
                        reads += 1
                        l1 = dl1
                    elif kind is write_kind:
                        writes += 1
                        l1 = dl1
                    else:
                        ifetches += 1
                        l1 = il1
                    # -- inlined PrivateCore.probe; its miss and upgrade
                    # -- branches make System._access's home calls, then
                    # -- PrivateCore.fill's or complete_upgrade's work ----
                    l1_lines = l1.get(addr % l1_sets)
                    in_l1 = False
                    if l1_lines:
                        if l1_lines[-1] == addr:
                            in_l1 = True
                        elif addr in l1_lines:
                            in_l1 = True
                            l1_lines.remove(addr)
                            l1_lines.append(addr)
                    state = states.get(addr)
                    if state is None:
                        if in_l1:
                            raise ProtocolError(
                                f"core {core_id}: block {addr:#x} in L1 "
                                f"but not L2"
                            )
                        latency, fill_state = handle_access(
                            core_id, addr, kind, issue_time, False
                        )
                        # -- inlined PrivateCore.fill: install in the L2,
                        # -- dropping its LRU victim from every level,
                        # -- then as MRU of the L1 set --------------------
                        if fill_state is invalid_state:
                            raise ProtocolError("cannot fill a block in state I")
                        victim_state = None
                        set_index = addr % l2_sets
                        lines = l2.get(set_index)
                        if lines is None:
                            lines = l2[set_index] = []
                        elif len(lines) >= l2_assoc:
                            victim = lines.pop(0)
                            set_index = victim % l1_sets
                            victim_lines = il1.get(set_index)
                            if victim_lines and victim in victim_lines:
                                victim_lines.remove(victim)
                            victim_lines = dl1.get(set_index)
                            if victim_lines and victim in victim_lines:
                                victim_lines.remove(victim)
                            victim_state = states.pop(victim)
                        lines.append(addr)
                        states[addr] = fill_state
                        # A home only ever removes blocks from this core's
                        # L1 sets, so the probed list is still the set's.
                        if l1_lines is None:
                            l1[addr % l1_sets] = [addr]
                        else:
                            if len(l1_lines) >= l1_assoc:
                                del l1_lines[0]
                            l1_lines.append(addr)
                        # -- end inlined fill -----------------------------
                        if victim_state is not None:
                            handle_eviction(
                                core_id, victim, victim_state, issue_time
                            )
                        latency += hit_latency
                    else:
                        lines = l2[addr % l2_sets]
                        if lines[-1] != addr:
                            lines.remove(addr)
                            lines.append(addr)
                        if kind is write_kind and state is shared_state:
                            latency = handle_access(
                                core_id, addr, kind, issue_time, True
                            )[0]
                            # -- inlined PrivateCore.complete_upgrade ----
                            if states.get(addr) is not shared_state:
                                raise ProtocolError(
                                    f"core {core_id}: upgrade completion "
                                    f"for block {addr:#x} not held in S"
                                )
                            states[addr] = modified_state
                            latency += l1_latency
                        else:
                            if kind is write_kind and state is exclusive_state:
                                states[addr] = modified_state
                            if in_l1:
                                l1_hits += 1
                                latency = l1_latency
                            else:
                                # L2 hit: promote into the L1 (the LRU
                                # way leaves silently, the L2 still holds
                                # it).
                                if l1_lines is None:
                                    l1[addr % l1_sets] = [addr]
                                else:
                                    if len(l1_lines) >= l1_assoc:
                                        del l1_lines[0]
                                    l1_lines.append(addr)
                                l2_hits += 1
                                latency = hit_latency
                    # -- end inlined probe ----------------------------------
                    done = issue_time + latency
                    processed += 1
                if done > finish:
                    finish = done
                if processed == next_event:
                    if processed == next_check:
                        check_deadline()
                        next_check += CHECK_STRIDE
                    if processed == next_audit:
                        self._audit(system)
                        next_audit += interval
                    if processed == next_warmup:
                        # stats.reset() zeroes every counter, so the batch
                        # is dropped rather than flushed.
                        reads = writes = ifetches = 0
                        l1_hits = l2_hits = 0
                        stats.reset()
                        measure_start = finish
                        next_warmup = never
                        if tracing:
                            tracer.emit(
                                "measure:start",
                                cycle=finish,
                                warmup_accesses=processed,
                            )
                    if processed == total:
                        break
                    next_event = min(next_check, next_audit, next_warmup, total)
                index += 1
                if index < len(stream):
                    item = heappushpop(heap, (done, core_id, index))
                else:
                    # Accesses remain (processed < total), so the heap
                    # holds at least one core.
                    item = heappop(heap)
        finally:
            self.processed = processed
            self.executed = _executed(streams, heap, item, processed)
        if auditor is not None and (total == 0 or processed % interval):
            # Close the final (partial) audit window.
            self._audit(system)
        stats.accesses += reads + writes + ifetches
        stats.reads += reads
        stats.writes += writes
        stats.ifetches += ifetches
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        if not observed:
            # System.access counts the accesses an observed run makes.
            system.access_index += processed
        final = system.finalize()
        final.cycles = max(0, finish - measure_start)
        return final


def _executed(streams, heap, item, processed: int) -> "list[int]":
    """Per-stream executed counts, read off the schedule.

    A stream's next access waits in the heap, or is ``item``, the access
    in hand, at its index; a stream with neither has run to its end. The
    access in hand counts when ``processed`` says it ran.
    """
    executed = [len(stream) for stream in streams]
    for _clock, core, index in heap:
        executed[core] = index
    if item is not None:
        executed[item[1]] = item[2]
        if sum(executed) < processed:
            executed[item[1]] += 1
    return executed


def run_trace(
    system: System,
    streams: "list[list[tuple]]",
    warmup_fraction: float = 0.4,
    auditor=None,
    oracle=None,
    tracer=None,
) -> SimStats:
    """Convenience wrapper: run ``streams`` on ``system`` and return stats."""
    return TraceEngine(
        system,
        streams,
        warmup_fraction,
        auditor=auditor,
        oracle=oracle,
        tracer=tracer,
    ).run()
