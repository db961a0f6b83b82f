"""Protocol conformance subsystem.

Three cooperating parts, all opt-in and bit-identity-preserving when
idle:

* :mod:`repro.verify.litmus` — a curated library of small adversarial
  multi-core access patterns run against every scheme with the value
  oracle and per-step auditing;
* :mod:`repro.verify.fuzzer` — a seeded random-walk fuzzer biased
  toward directory-eviction, corrupted-state, and spill/recall hot
  spots, with ddmin shrinking of failures to minimal replayable
  reproducers (:mod:`repro.verify.reproducer`);
* :mod:`repro.verify.coverage` — transition-coverage accounting over
  the home controllers, used both to steer the fuzzer and to assert a
  coverage floor in CI.

A fourth part, :mod:`repro.verify.differential`, replays durable
``.rtrace`` captures (see :mod:`repro.workloads.capture`) through every
scheme, checks cross-scheme architectural agreement and stat-delta
tolerances, and prefix-bisects divergences to minimal replayable
sub-traces; entry point ``python -m repro diff``
(:mod:`repro.verify.diff_cli`).

Entry point: ``python -m repro verify`` (:mod:`repro.verify.cli`).
"""

from repro.verify.coverage import (
    KNOWN_TRANSITIONS,
    CoverageMap,
    coverage_fraction,
    render_coverage_table,
)
from repro.verify.differential import (
    ALL_SCHEMES,
    MonitoredRun,
    bisect_divergence,
    diff_trace,
    replay_subtrace,
    run_monitored,
    tolerance_for,
    truncate_streams,
)
from repro.verify.fuzzer import FuzzResult, ddmin, fault_plan_for, fuzz_run, fuzz_task
from repro.verify.harness import (
    DEFAULT_VERIFY_AUDIT_INTERVAL,
    ScheduleResult,
    VerifyHarness,
    build_system,
    run_schedule,
)
from repro.verify.litmus import (
    LITMUS_TESTS,
    Geometry,
    LitmusOutcome,
    LitmusTest,
    geometry_of,
    run_litmus,
)
from repro.verify.oracle import ValueOracle
from repro.verify.reproducer import (
    REPRODUCER_VERSION,
    SCHEME_SPECS,
    default_verify_spec,
    load_reproducer,
    replay,
    reproducer_dict,
    save_reproducer,
)
from repro.verify.steps import (
    AccessStep,
    F,
    FaultStep,
    R,
    W,
    merge_plan,
    step_from_dict,
    step_to_dict,
)

__all__ = [
    "ALL_SCHEMES",
    "MonitoredRun",
    "bisect_divergence",
    "diff_trace",
    "replay_subtrace",
    "run_monitored",
    "tolerance_for",
    "truncate_streams",
    "KNOWN_TRANSITIONS",
    "CoverageMap",
    "coverage_fraction",
    "render_coverage_table",
    "FuzzResult",
    "ddmin",
    "fault_plan_for",
    "fuzz_run",
    "fuzz_task",
    "DEFAULT_VERIFY_AUDIT_INTERVAL",
    "ScheduleResult",
    "VerifyHarness",
    "build_system",
    "run_schedule",
    "LITMUS_TESTS",
    "Geometry",
    "LitmusOutcome",
    "LitmusTest",
    "geometry_of",
    "run_litmus",
    "ValueOracle",
    "REPRODUCER_VERSION",
    "SCHEME_SPECS",
    "default_verify_spec",
    "load_reproducer",
    "replay",
    "reproducer_dict",
    "save_reproducer",
    "AccessStep",
    "F",
    "FaultStep",
    "R",
    "W",
    "merge_plan",
    "step_from_dict",
    "step_to_dict",
]
