"""repro — a from-scratch reproduction of "Tiny Directory: Efficient
Shared Memory in Many-core Systems with Ultra-low-overhead Coherence
Tracking" (Shukla & Chaudhuri, HPCA 2017).

Quickstart::

    from repro import SystemConfig, TinySpec, run_app

    result = run_app("barnes", TinySpec(ratio=1 / 32, policy="gnru", spill=True))
    print(result.cycles, result.stats.lengthened_fraction)

The package layers:

* ``repro.core`` — the paper's contribution: STRA estimation, the tiny
  directory (DSTRA / DSTRA+gNRU) and the dynamic LLC spill policy.
* ``repro.coherence`` / ``repro.cache`` / ``repro.directory`` — the MESI
  protocol engine, private hierarchies, the banked LLC with corrupted
  states, and the competing directory organizations.
* ``repro.interconnect`` / ``repro.memory`` — the 2D mesh and DRAM
  substrates.
* ``repro.sim`` — configuration, system assembly, trace engine, stats.
* ``repro.workloads`` — synthetic traces for the seventeen Table II
  applications, plus the versioned ``.rtrace`` capture format
  (``repro.workloads.capture``) for recording and bit-identical replay.
* ``repro.energy`` / ``repro.analysis`` — the energy model and the
  per-figure experiment harness.
* ``repro.parallel`` — the process-based sweep executor with
  profiling hooks, resumable checkpoints (``run_sweep``,
  ``collect_points``), and graceful SIGINT/SIGTERM shutdown
  (``graceful_scope``, ``resume_hint``); see ``docs/harness.md`` and
  ``docs/resilience.md``.
* ``repro.verify`` — the protocol conformance subsystem: litmus tests,
  the random-walk fuzzer with shrinking, transition coverage, the
  cross-scheme differential harness (``python -m repro diff``), and the
  ``python -m repro verify`` entry point; see ``docs/verification.md``.
* ``repro.telemetry`` — structured transaction tracing (``TraceEvent``,
  ring/JSONL sinks) and ``BENCH_*.json`` perf-baseline emission; see
  ``docs/telemetry.md``.

The full documented public surface is re-exported here; see
``docs/architecture.md`` for the module map.
"""

from repro.analysis.cache import cached_run
from repro.analysis.runner import (
    HarnessPolicy,
    RunFailure,
    RunScale,
    harness,
    run_app,
    run_app_guarded,
    scale_from_env,
)
from repro.parallel import (
    RunProfile,
    SweepJournal,
    SweepPoint,
    SweepReport,
    collect_points,
    run_sweep,
    run_tasks,
)
from repro.parallel.shutdown import graceful_scope, resume_hint
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.engine import TraceEngine, run_trace
from repro.sim.results import RunResult
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.telemetry import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
    attach_observer,
    merge_worker_traces,
    read_trace,
    write_bench_point,
)
from repro.types import AccessKind
from repro.verify import (
    CoverageMap,
    ValueOracle,
    diff_trace,
    fuzz_run,
    run_litmus,
    run_schedule,
)
from repro.workloads.capture import load_capture, save_capture
from repro.workloads.generator import (
    SyntheticTraceGenerator,
    clear_trace_cache,
    generate_streams,
    trace_cache_stats,
)
from repro.workloads.profiles import APPLICATIONS, PROFILES, WorkloadProfile, profile

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "APPLICATIONS",
    "CoverageMap",
    "HarnessPolicy",
    "InLLCSpec",
    "JsonlSink",
    "MgdSpec",
    "PROFILES",
    "RingBufferSink",
    "RunFailure",
    "RunProfile",
    "RunResult",
    "RunScale",
    "SimStats",
    "SparseSpec",
    "StashSpec",
    "SweepJournal",
    "SweepPoint",
    "SweepReport",
    "SyntheticTraceGenerator",
    "System",
    "SystemConfig",
    "TinySpec",
    "TraceEngine",
    "TraceEvent",
    "Tracer",
    "ValueOracle",
    "WorkloadProfile",
    "attach_observer",
    "cached_run",
    "clear_trace_cache",
    "collect_points",
    "diff_trace",
    "fuzz_run",
    "generate_streams",
    "graceful_scope",
    "harness",
    "load_capture",
    "merge_worker_traces",
    "profile",
    "read_trace",
    "resume_hint",
    "run_app",
    "run_app_guarded",
    "run_litmus",
    "run_schedule",
    "run_sweep",
    "run_tasks",
    "run_trace",
    "save_capture",
    "scale_from_env",
    "trace_cache_stats",
    "write_bench_point",
    "__version__",
]
