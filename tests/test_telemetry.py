"""The telemetry subsystem: tracing, metrics, bench points.

Pins the three contracts ``docs/telemetry.md`` documents:

1. **Zero overhead when off** — a traced run and an untraced run of the
   same (streams, system) produce bit-identical statistics dumps, and
   an unmetered run's dump carries no ``telemetry`` section at all.
2. **Lossless trace round trip** — events emitted through the JSONL
   sink read back equal (``seq``, ``kind``, context, and data) to the
   same run's in-memory ring capture.
3. **Mergeable metrics** — snapshots from independent runs/workers fold
   together with counters adding, gauges last-wins, and histogram
   bounds widening.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
from collections import Counter

import pytest

from repro.analysis.runner import RunScale, run_app
from repro.resilience import FlightRecorder
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec
from repro.sim.system import System
from repro.telemetry import (
    EVENT_KINDS,
    JsonlSink,
    MetricsRegistry,
    NULL_TRACER,
    RingBufferSink,
    TraceEvent,
    Tracer,
    attach_observer,
    merge_snapshots,
    merge_worker_traces,
    metrics_from_env,
    read_trace,
    tracer_from_env,
    write_bench_point,
)
from repro.telemetry.metrics import Histogram
from repro.verify import CoverageMap
from repro.workloads.generator import generate_streams
from repro.sim.engine import run_trace

SCALE = RunScale(num_cores=8, total_accesses=4_000, spill_window=64)

FIVE_SCHEMES = [
    SparseSpec(ratio=1 / 8),
    InLLCSpec(),
    SCALE.tiny_spec(1 / 32, "gnru", spill=True),
    MgdSpec(),
    StashSpec(),
]


def small_run(tracer=None, scheme=None, observers=()):
    scheme = scheme or SCALE.tiny_spec(1 / 32, "gnru", spill=True)
    config = SCALE.make_config(scheme)
    system = System(config)
    streams = generate_streams(
        "compress", config, SCALE.total_accesses, seed=SCALE.seed
    )
    for observer in observers:
        attach_observer(system, observer)
    stats = run_trace(system, streams, tracer=tracer)
    return system, stats


class TestTraceEvent:
    def test_dict_round_trip(self):
        event = TraceEvent(3, "txn:start", cycle=40, core=2, addr=0x1000,
                           data={"op": "READ"})
        clone = TraceEvent.from_dict(event.to_dict())
        assert clone == event
        assert clone.data == {"op": "READ"}

    def test_to_dict_omits_absent_context(self):
        payload = TraceEvent(1, "tiny:decline").to_dict()
        assert payload == {"seq": 1, "kind": "tiny:decline"}

    def test_json_round_trip_is_bit_exact(self):
        event = TraceEvent(7, "recovery:repair", addr=12,
                           data={"action": "rebuild", "verified": True})
        wire = json.dumps(event.to_dict(), separators=(",", ":"))
        assert TraceEvent.from_dict(json.loads(wire)) == event


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=lambda s: s.name)
    def test_traced_run_is_bit_identical_to_untraced(self, scheme):
        _, plain = small_run(scheme=scheme)
        tracer = Tracer(RingBufferSink())
        _, traced = small_run(
            tracer=tracer,
            scheme=scheme,
            observers=(CoverageMap(), FlightRecorder()),
        )
        assert traced.dump() == plain.dump()
        assert {e.kind for e in tracer.sink.events()} <= set(EVENT_KINDS)

    def test_untraced_dump_has_no_telemetry_section(self):
        _, stats = small_run()
        assert "telemetry" not in stats.dump()
        assert "telemetry" not in stats.as_dict()

    def test_metrics_section_round_trips_through_dump(self):
        from repro.sim.stats import SimStats

        _, stats = small_run()
        metrics = MetricsRegistry()
        metrics.count("txn:accesses", 4000)
        metrics.publish(stats)
        reloaded = SimStats.load(stats.dump())
        assert reloaded.telemetry["counters"]["txn:accesses"] == 4000


class TestTraceCapture:
    def test_txn_events_cover_every_access(self):
        tracer = Tracer(RingBufferSink(capacity=1_000_000))
        _, stats = small_run(tracer=tracer)
        events = tracer.sink.events()
        starts = [e for e in events if e.kind == "txn:start"]
        finishes = [e for e in events if e.kind == "txn:finish"]
        # Every processed transaction is traced: the measured accesses
        # plus the warmup window the stats exclude.
        assert len(starts) == len(finishes)
        assert len(starts) >= stats.accesses > 0
        assert all(e.kind in EVENT_KINDS for e in events)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_tiny_scheme_emits_structure_events(self):
        tracer = Tracer(RingBufferSink(capacity=1_000_000))
        small_run(tracer=tracer)
        kinds = {e.kind for e in tracer.sink.events()}
        assert "tiny:alloc" in kinds
        assert "stra:classify" in kinds

    def test_jsonl_capture_equals_ring_capture(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ring = RingBufferSink(capacity=1_000_000)

        class Tee:
            def __init__(self, *sinks):
                self.sinks = sinks

            def write(self, event):
                for sink in self.sinks:
                    sink.write(event)

            def close(self):
                for sink in self.sinks:
                    sink.close()

        small_run(tracer=Tracer(Tee(JsonlSink(path), ring)))
        assert read_trace(path) == ring.events()

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write(TraceEvent(1, "txn:start"))
        sink.write(TraceEvent(2, "txn:finish"))
        sink.close()
        with open(path, "a") as handle:
            handle.write('{"seq":3,"kind":"txn')  # killed mid-write
        events = read_trace(path)
        assert [e.seq for e in events] == [1, 2]

    def test_install_tracer_reaches_containers_and_reverts(self):
        system, _ = small_run()
        tracer = Tracer(RingBufferSink())
        attach_observer(system, tracer)
        assert system.home.observer is tracer
        attach_observer(system, NULL_TRACER)
        assert system.home.observer is NULL_TRACER

    def test_coverage_counts_the_traced_kinds(self):
        tracer = Tracer(RingBufferSink(capacity=1_000_000))
        coverage = CoverageMap()
        small_run(tracer=tracer, observers=(coverage,))
        engine_only = {"txn:start", "txn:finish", "measure:start"}
        kinds = Counter(
            e.kind for e in tracer.sink.events() if e.kind not in engine_only
        )
        assert kinds["tiny:alloc"] > 0
        assert kinds == coverage.counts


class TestWorkerTraceFanIn:
    def test_parts_merge_sorted_and_deleted(self, tmp_path, monkeypatch):
        base = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(base))
        base.write_text('{"seq":1,"kind":"txn:start"}\n')
        for pid, seq in [(222, 2), (111, 3)]:
            part = tmp_path / f"trace.jsonl.{pid}.part"
            part.write_text(f'{{"seq":{seq},"kind":"txn:finish"}}\n')
        merged = merge_worker_traces()
        assert merged == 2
        assert not list(tmp_path.glob("*.part"))
        # Sorted filename order: 111 before 222.
        assert [e.seq for e in read_trace(base)] == [1, 3, 2]

    def test_merge_without_parts_is_a_noop(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_OUT", str(tmp_path / "none.jsonl"))
        assert merge_worker_traces() == 0


class TestEnvBuilders:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert tracer_from_env() is None
        assert metrics_from_env() is None

    def test_jsonl_and_ring_selectors(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_OUT", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TRACE", "jsonl")
        tracer = tracer_from_env()
        assert isinstance(tracer.sink, JsonlSink)
        monkeypatch.setenv("REPRO_TRACE", "ring:128")
        tracer = tracer_from_env()
        assert isinstance(tracer.sink, RingBufferSink)
        assert tracer.sink.capacity == 128

    def test_invalid_trace_warns_and_disables(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", "csv")
        assert tracer_from_env() is None
        assert "REPRO_TRACE" in capsys.readouterr().err

    def test_invalid_metrics_warns_and_disables(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_METRICS", "always")
        assert metrics_from_env() is None
        assert "REPRO_METRICS" in capsys.readouterr().err

    def test_metrics_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "on")
        assert isinstance(metrics_from_env(), MetricsRegistry)


class TestMetrics:
    def test_histogram_buckets_and_merge(self):
        left, right = Histogram(), Histogram()
        for value in (1, 2, 100):
            left.observe(value)
        right.observe(0.5)
        right.merge_dict(left.as_dict())
        assert right.count == 4
        assert right.min == 0.5 and right.max == 100
        assert sum(right.buckets.values()) == 4

    def test_merge_snapshots_semantics(self):
        a = MetricsRegistry()
        a.count("txn:accesses", 100)
        a.gauge("llc_miss_rate", 0.25)
        a.observe("phase:simulate", 1.0)
        b = MetricsRegistry()
        b.count("txn:accesses", 50)
        b.gauge("llc_miss_rate", 0.5)
        b.observe("phase:simulate", 4.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot(), {}])
        assert merged["counters"]["txn:accesses"] == 150
        assert merged["gauges"]["llc_miss_rate"] == 0.5  # last wins
        hist = merged["histograms"]["phase:simulate"]
        assert hist["count"] == 2 and hist["max"] == 4.0

    def test_empty_registry_publishes_nothing(self):
        from repro.sim.stats import SimStats

        stats = SimStats()
        MetricsRegistry().publish(stats)
        assert stats.telemetry == {}
        assert "telemetry" not in stats.dump()

    def test_run_app_with_metrics_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_METRICS", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_app("compress", SCALE.tiny_spec(1 / 32, "gnru"), SCALE)
        telemetry = result.stats.telemetry
        assert telemetry["counters"]["txn:accesses"] == result.stats.accesses
        assert telemetry["counters"]["txn:accesses"] > 0
        assert "phase:simulate" in telemetry["histograms"]
        assert "phase:generate" in telemetry["histograms"]


class TestBenchPoints:
    def test_write_bench_point_payload(self, tmp_path):
        path = write_bench_point(tmp_path, "fig16[quick]", seconds=1.25,
                                 jobs=2)
        name = pathlib.Path(path).name
        assert name == "BENCH_fig16_quick.json"
        payload = json.loads(pathlib.Path(path).read_text())
        assert payload == {"name": "fig16[quick]", "seconds": 1.25, "jobs": 2}

    def test_unset_env_means_no_dir(self, monkeypatch):
        from repro.telemetry import bench_dir_from_env

        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert bench_dir_from_env() is None
        monkeypatch.setenv("REPRO_BENCH_DIR", "bench-points")
        assert bench_dir_from_env() == "bench-points"


class TestTraceReport:
    @pytest.fixture(scope="class")
    def report(self):
        spec = importlib.util.spec_from_file_location(
            "trace_report",
            pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "trace_report.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_render_timeline(self, report):
        events = [
            TraceEvent(1, "txn:start", cycle=40, core=3, addr=0x1000,
                       data={"op": "READ"}),
            TraceEvent(2, "txn:finish", cycle=104, core=3, addr=0x1000,
                       data={"latency": 64}),
            TraceEvent(3, "tiny:decline", addr=0x2000),
        ]
        lines = report.render(events)
        text = "\n".join(lines)
        assert "3 events" in lines[0] and "2 addresses" in lines[0]
        assert "addr 0x1000" in text
        assert "op=READ" in text and "latency=64" in text

    def test_cli_end_to_end(self, report, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write(TraceEvent(1, "txn:start", cycle=1, core=0, addr=4096,
                              data={"op": "WRITE"}))
        sink.close()
        assert report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "txn:start" in out and "0x1000" in out

    def test_missing_trace_fails(self, report, tmp_path, capsys):
        assert report.main([str(tmp_path / "absent.jsonl")]) == 1
        assert "no such trace" in capsys.readouterr().err


class TestPublicSurface:
    def test_reexported_from_repro(self):
        import repro

        for name in ("TraceEvent", "Tracer", "MetricsRegistry",
                     "merge_snapshots", "read_trace", "write_bench_point"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestSweepTelemetry:
    def test_worker_metrics_merge_across_sweep(self, monkeypatch, tmp_path):
        from repro.parallel import SweepPoint, run_sweep

        monkeypatch.setenv("REPRO_METRICS", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = [
            SweepPoint("compress", SCALE.tiny_spec(1 / 32, "gnru"), SCALE),
            SweepPoint("compress", SCALE.tiny_spec(1 / 64, "gnru"), SCALE),
        ]
        report = run_sweep(points, jobs=2)
        merged = report.telemetry()
        per_run = [r.stats.telemetry["counters"]["txn:accesses"]
                   for r in report.results]
        assert merged["counters"]["txn:accesses"] == sum(per_run)
        assert "phase:simulate" in merged["histograms"]
        assert merged["histograms"]["phase:simulate"]["count"] == len(points)
