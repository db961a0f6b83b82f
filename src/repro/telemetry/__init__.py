"""Observability for the simulator: tracing, metrics, perf baselines.

``repro.telemetry`` is the bottom observability layer — stdlib-only, so
every simulator layer (``directory``, ``coherence``, ``sim``,
``recovery``) can import it without cycles. It has three parts:

* **Tracing** (:mod:`~repro.telemetry.events`,
  :mod:`~repro.telemetry.sinks`): structured :class:`TraceEvent`
  records emitted from instrumented hot paths into a pluggable sink
  (ring buffer, JSONL file, or null), through the one observer channel
  that transition coverage and the flight recorder share
  (:func:`attach_observer`). Off by default via the shared
  :data:`NULL_TRACER`; disabled runs are bit-identical.
* **Metrics** (:mod:`~repro.telemetry.metrics`): a
  :class:`MetricsRegistry` of counters, gauges, and log2-bucketed
  histograms that snapshots into the publish-only-when-nonempty
  ``telemetry`` stats section and merges across parallel workers.
* **Bench points** (:mod:`~repro.telemetry.bench`): ``BENCH_*.json``
  perf-baseline emission for CI artifacts.

End-to-end usage is documented in ``docs/telemetry.md``.
"""

from repro.telemetry.events import EVENT_KINDS, TraceEvent
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metrics_from_env,
    phase,
)
from repro.telemetry.sinks import (
    DEFAULT_RING_CAPACITY,
    DEFAULT_TRACE_OUT,
    NULL_TRACER,
    JsonlSink,
    NullSink,
    NullTracer,
    RingBufferSink,
    Tracer,
    attach_observer,
    jsonl_trace_enabled,
    merge_worker_traces,
    read_trace,
    trace_base_path,
    trace_output_path,
    tracer_from_env,
)
from repro.telemetry.bench import bench_dir_from_env, write_bench_point

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "metrics_from_env",
    "phase",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_TRACE_OUT",
    "NULL_TRACER",
    "JsonlSink",
    "NullSink",
    "NullTracer",
    "RingBufferSink",
    "Tracer",
    "attach_observer",
    "jsonl_trace_enabled",
    "merge_worker_traces",
    "read_trace",
    "trace_base_path",
    "trace_output_path",
    "tracer_from_env",
    "bench_dir_from_env",
    "write_bench_point",
]
