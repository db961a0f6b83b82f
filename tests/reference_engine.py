"""A per-access reference loop for the trace engine.

:func:`run_reference` interleaves the streams by minimum clock like
:meth:`repro.sim.engine.TraceEngine.run`, but calls
:meth:`System.access` for every access, with no inlined private-hit
path and no batched counters. It is the oracle the engine is held to:
tests/test_fastpath.py and tests/test_corpus_golden.py require the
engine's ``SimStats.dump()`` to equal this loop's byte for byte, and
``benchmarks/bench_micro_hotpath.py`` times the engine against it.
"""

from __future__ import annotations

import heapq

from repro.sim.deadline import CHECK_STRIDE, check_deadline
from repro.sim.engine import TraceEngine
from repro.sim.stats import SimStats
from repro.telemetry import attach_observer


def run_reference(engine: TraceEngine) -> SimStats:
    """Run ``engine``'s streams on the per-access reference loop."""
    system = engine.system
    auditor = engine.auditor
    oracle = engine.oracle
    tracer = engine.tracer
    if auditor is not None:
        auditor.install(system)
    if tracer.enabled:
        attach_observer(system, tracer)
    total = sum(len(stream) for stream in engine.streams)
    warmup_left = int(total * engine.warmup_fraction)
    if total and warmup_left >= total:
        # Degenerate fraction/rounding: always measure >= 1 access.
        warmup_left = total - 1
    heap = [
        (0, core, 0)
        for core, stream in enumerate(engine.streams)
        if stream
    ]
    heapq.heapify(heap)
    finish = 0
    measure_start = 0
    processed = 0
    while heap:
        clock, core, index = heapq.heappop(heap)
        acc = engine.streams[core][index]
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
            engine._audit(system)
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
        if index < len(engine.streams[core]):
            heapq.heappush(heap, (done, core, index))
    if auditor is not None and (total == 0 or processed % auditor.interval):
        # Close the final (partial) audit window.
        engine._audit(system)
    stats = system.finalize()
    stats.cycles = max(0, finish - measure_start)
    return stats


def reference_trace(
    system,
    streams,
    warmup_fraction: float = 0.4,
    auditor=None,
    oracle=None,
    tracer=None,
) -> SimStats:
    """:func:`repro.sim.engine.run_trace` on the reference loop."""
    return run_reference(
        TraceEngine(
            system,
            streams,
            warmup_fraction,
            auditor=auditor,
            oracle=oracle,
            tracer=tracer,
        )
    )
