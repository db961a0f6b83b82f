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

A :class:`~repro.recovery.manager.RecoveryManager` turns detection into
self-healing: audit windows are routed through the manager, which
repairs a tripped invariant (probe the private caches, rebuild the
tracking entry, re-verify) and lets the trace loop *resume* from the
same point instead of aborting — the next heap pop continues exactly
where the violation was caught. Recovery costs are published to the
statistics' recovery section after finalize.

The loop also honours the harness deadline
(:mod:`repro.sim.deadline`): every ``CHECK_STRIDE`` accesses it checks
the armed wall-clock limit and raises
:class:`~repro.errors.RunTimeoutError` once exceeded, which is what
makes per-run timeouts work inside process-pool workers. It is the
engine's one wall-clock limit: each lane makes one limiter call per
stride.

The engine has two lanes over the same protocol code (see
:mod:`repro.sim.fastpath`): unobserved runs take the fast lane, whose
private-hit short circuit and batched counters produce statistics
bit-identical to the reference lane; any observer (auditor, oracle,
recovery, tracer, fault injector) or ``REPRO_FAST=off`` selects the
reference lane.
"""

from __future__ import annotations

import heapq

from repro.errors import InvariantViolation, ProtocolError, TraceError
from repro.sim.deadline import CHECK_STRIDE, check_deadline
from repro.sim.fastpath import fast_lane_from_env
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.telemetry import NULL_TRACER, attach_observer
from repro.types import Access, AccessKind, PrivateState


class TraceEngine:
    """Interleaves per-core access streams over a :class:`System`.

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
        streams: "list[list[Access]]",
        warmup_fraction: float = 0.4,
        auditor=None,
        oracle=None,
        recovery=None,
        tracer=None,
        fast_path: "bool | None" = None,
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
        self.recovery = recovery
        #: Hears the protocol transitions (attached to the system like any
        #: observer) plus the engine's own per-access ``txn:*``,
        #: ``measure:start`` and ``audit:*`` events, which go only here.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Fast-lane preference; None resolves from ``REPRO_FAST``.
        self.fast_path = (
            fast_lane_from_env() if fast_path is None else fast_path
        )

    def fast_lane_engaged(self) -> bool:
        """True when this run will execute on the fast lane.

        The fast lane only engages for *unobserved* runs: no auditor, no
        value oracle, no recovery manager, no enabled tracer, and no
        fault injector — each of those needs to see every individual
        access, which the private-hit short circuit skips. Observed runs
        silently fall back to the reference lane, so correctness tooling
        never has to know the fast lane exists.
        """
        return (
            self.fast_path
            and self.auditor is None
            and self.oracle is None
            and self.recovery is None
            and not self.tracer.enabled
            and self.system.fault_injector is None
        )

    def _audit(self, system) -> None:
        """One audit window, routed through recovery when enabled."""
        try:
            if self.recovery is not None:
                self.recovery.audit(self.auditor, system)
            else:
                self.auditor.audit(system)
        except InvariantViolation as err:
            if self.tracer.enabled:
                self.tracer.emit(
                    "audit:violation", addr=err.addr, error=err.message
                )
            raise
        if self.tracer.enabled:
            self.tracer.emit("audit:window", audits=self.auditor.audits)

    def run(self) -> SimStats:
        """Run every stream to completion; returns finalized stats."""
        if self.fast_lane_engaged():
            return self._run_fast()
        return self._run_reference()

    def _run_reference(self) -> SimStats:
        """The reference lane: full observer support, one
        :meth:`System.access` call per access."""
        system = self.system
        auditor = self.auditor
        oracle = self.oracle
        tracer = self.tracer
        if auditor is not None:
            auditor.install(system)
        if tracer.enabled:
            attach_observer(system, tracer)
        total = sum(len(stream) for stream in self.streams)
        warmup_left = int(total * self.warmup_fraction)
        if total and warmup_left >= total:
            # Degenerate fraction/rounding: always measure >= 1 access.
            warmup_left = total - 1
        heap = [
            (0, core, 0)
            for core, stream in enumerate(self.streams)
            if stream
        ]
        heapq.heapify(heap)
        finish = 0
        measure_start = 0
        processed = 0
        while heap:
            clock, core, index = heapq.heappop(heap)
            acc = self.streams[core][index]
            issue_time = clock + acc.gap
            if tracer.enabled:
                tracer.emit(
                    "txn:start",
                    cycle=issue_time,
                    core=acc.core,
                    addr=acc.addr,
                    op=acc.kind.name,
                )
            pre_state = (
                oracle.pre_state(system, acc.core, acc.addr)
                if oracle is not None
                else None
            )
            latency = system.access(acc, issue_time)
            if oracle is not None:
                oracle.observe(system, acc.core, acc.addr, acc.kind, pre_state)
            done = issue_time + latency
            if tracer.enabled:
                tracer.emit(
                    "txn:finish",
                    cycle=done,
                    core=acc.core,
                    addr=acc.addr,
                    latency=latency,
                )
            if done > finish:
                finish = done
            processed += 1
            if processed % CHECK_STRIDE == 0:
                check_deadline()
            if auditor is not None and processed % auditor.interval == 0:
                self._audit(system)
            if warmup_left and processed == warmup_left:
                system.stats.reset()
                measure_start = finish
                if tracer.enabled:
                    tracer.emit(
                        "measure:start",
                        cycle=finish,
                        warmup_accesses=processed,
                    )
            index += 1
            if index < len(self.streams[core]):
                heapq.heappush(heap, (done, core, index))
        if auditor is not None and (total == 0 or processed % auditor.interval):
            # Close the final (partial) audit window.
            self._audit(system)
        stats = system.finalize()
        stats.cycles = max(0, finish - measure_start)
        if self.recovery is not None:
            self.recovery.publish(stats)
        return stats

    def _run_fast(self) -> SimStats:
        """The fast lane: private hits short-circuit inside the loop.

        Mirrors :meth:`repro.sim.system.System._access` exactly, but a
        private hit costs an inlined L1 list test, one state-dict lookup
        and a handful of local-variable updates — no ProbeResult
        allocation, no per-access stats method calls, no home dispatch.
        The inlined lookup is the literal twin of
        :meth:`PrivateCore.classify` (same recency touches, same L1
        promotion, same silent E->M upgrade, same inclusion check); the
        bit-identity tests in ``tests/test_fastpath.py`` pin the two
        against each other. The batched counters commute with everything
        the miss path touches, so flushing them at the warmup boundary
        and at end of trace yields statistics bit-identical to the
        reference lane. Each access hands the core's next one back to
        the heap with one ``heappushpop``, which returns the same
        earliest access a push and a pop would.
        """
        system = self.system
        stats = system.stats
        config = system.config
        home = system.home
        cores = system.cores
        streams = self.streams
        l1_latency = config.l1_latency
        hit_latency = config.l1_latency + config.l2_latency
        num_cores = config.num_cores
        read_kind = AccessKind.READ
        write_kind = AccessKind.WRITE
        shared_state = PrivateState.SHARED
        exclusive_state = PrivateState.EXCLUSIVE
        modified_state = PrivateState.MODIFIED
        handle_access = home.handle_access
        handle_eviction = home.handle_private_eviction
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        # Per-core lookup tables: (il1, dl1, l2, states, core). Every
        # core has the geometry the config gives.
        l1_sets = config.l1_sets
        l2_sets = config.l2_sets
        core_tables = [
            (core.il1, core.dl1, core.l2, core.states, core) for core in cores
        ]
        total = sum(len(stream) for stream in streams)
        warmup_left = int(total * self.warmup_fraction)
        if total and warmup_left >= total:
            warmup_left = total - 1
        # The access count of the next deadline check, and of the next
        # event of either kind (that check or the warmup boundary), so
        # that an access makes one comparison for both.
        next_check = CHECK_STRIDE
        next_event = min(next_check, warmup_left) if warmup_left else next_check
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
        item = heappop(heap) if heap else None
        while item is not None:
            clock, core_id, index = item
            stream = streams[core_id]
            acc = stream[index]
            issue_time = clock + acc.gap
            acc_core = acc.core
            if not 0 <= acc_core < num_cores:
                raise TraceError(
                    f"access from core {acc_core} outside the system"
                )
            kind = acc.kind
            addr = acc.addr
            il1, dl1, l2, states, core = core_tables[acc_core]
            if kind is read_kind:
                reads += 1
                l1 = dl1
            elif kind is write_kind:
                writes += 1
                l1 = dl1
            else:
                ifetches += 1
                l1 = il1
            # -- inlined PrivateCore.classify; its miss and upgrade
            # -- branches make System._access's home calls --------------
            lines = l1.get(addr % l1_sets)
            in_l1 = False
            if lines:
                if lines[-1] == addr:
                    in_l1 = True
                elif addr in lines:
                    in_l1 = True
                    lines.remove(addr)
                    lines.append(addr)
            state = states.get(addr)
            if state is None:
                if in_l1:
                    raise ProtocolError(
                        f"core {acc_core}: block {addr:#x} in L1 but not L2"
                    )
                latency, fill_state = handle_access(
                    acc_core, addr, kind, issue_time, False
                )
                victim = core.fill(addr, kind, fill_state)
                if victim is not None:
                    handle_eviction(acc_core, victim[0], victim[1], issue_time)
                latency += hit_latency
            else:
                lines = l2[addr % l2_sets]
                if lines[-1] != addr:
                    lines.remove(addr)
                    lines.append(addr)
                if kind is write_kind and state is shared_state:
                    latency = handle_access(
                        acc_core, addr, kind, issue_time, True
                    )[0]
                    core.complete_upgrade(addr)
                    latency += l1_latency
                else:
                    if kind is write_kind and state is exclusive_state:
                        states[addr] = modified_state
                    if in_l1:
                        l1_hits += 1
                        latency = l1_latency
                    else:
                        # L2 hit: promote into the L1.
                        core._l1_fill(l1, addr)
                        l2_hits += 1
                        latency = hit_latency
            # -- end inlined classify -----------------------------------
            done = issue_time + latency
            if done > finish:
                finish = done
            processed += 1
            if processed == next_event:
                if processed == next_check:
                    check_deadline()
                    next_check += CHECK_STRIDE
                if processed == warmup_left:
                    # stats.reset() zeroes every counter, so the batch is
                    # dropped rather than flushed.
                    reads = writes = ifetches = 0
                    l1_hits = l2_hits = 0
                    stats.reset()
                    measure_start = finish
                next_event = (
                    min(next_check, warmup_left)
                    if warmup_left > processed
                    else next_check
                )
            index += 1
            if index < len(stream):
                item = heappushpop(heap, (done, core_id, index))
            else:
                item = heappop(heap) if heap else None
        stats.accesses += reads + writes + ifetches
        stats.reads += reads
        stats.writes += writes
        stats.ifetches += ifetches
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        system.access_index += processed
        final = system.finalize()
        final.cycles = max(0, finish - measure_start)
        return final


def run_trace(
    system: System,
    streams: "list[list[Access]]",
    warmup_fraction: float = 0.4,
    auditor=None,
    oracle=None,
    recovery=None,
    tracer=None,
    fast_path: "bool | None" = None,
) -> SimStats:
    """Convenience wrapper: run ``streams`` on ``system`` and return stats."""
    return TraceEngine(
        system,
        streams,
        warmup_fraction,
        auditor=auditor,
        oracle=oracle,
        recovery=recovery,
        tracer=tracer,
        fast_path=fast_path,
    ).run()
