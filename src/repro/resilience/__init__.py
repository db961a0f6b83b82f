"""Resilience subsystem: fault injection, online protocol auditing, and
the transaction flight recorder.

Three cooperating layers keep the simulator trustworthy:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultInjector` driven by a declarative :class:`FaultPlan`,
  pluggable into any scheme's :class:`~repro.sim.system.System`.
* :mod:`repro.resilience.auditor` — a :class:`ProtocolAuditor` that the
  trace engine invokes every ``audit_interval`` accesses, raising an
  :class:`~repro.errors.InvariantViolation` with a structured diagnostic
  within one window of a corruption.
* :mod:`repro.resilience.recorder` — the bounded per-address
  :class:`FlightRecorder` backing those diagnostics, an observer of the
  protocol transitions the home controllers emit.

See ``docs/resilience.md`` for the fault model and knobs.
"""

from repro.resilience.auditor import (
    DEFAULT_AUDIT_INTERVAL,
    ProtocolAuditor,
    auditor_from_env,
)
from repro.resilience.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
    injector_from_env,
    plan_from_env,
    tracking_location,
)
from repro.resilience.recorder import FlightRecorder

__all__ = [
    "DEFAULT_AUDIT_INTERVAL",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FlightRecorder",
    "InjectedFault",
    "ProtocolAuditor",
    "auditor_from_env",
    "injector_from_env",
    "plan_from_env",
    "tracking_location",
]
