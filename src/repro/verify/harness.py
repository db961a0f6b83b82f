"""Step-driven execution harness for conformance runs.

Wraps one :class:`~repro.sim.system.System` with everything a
conformance run needs: the value oracle, the online auditor (forced
on), an attached :class:`~repro.resilience.faults.FaultInjector` for
fault pseudo-steps, and optional transition-coverage collection. The
litmus engine, the fuzzer, the shrinker, and reproducer replay all
drive schedules through :func:`run_schedule`.

The auditor's flight recorder, an optional
:class:`~repro.verify.coverage.CoverageMap` and, under
``REPRO_TRACE``, a tracer all hear the same protocol transitions
(:func:`repro.telemetry.attach_observer`); the harness adds the
requester-side ``mesi:*`` transitions to that stream. Every inspection
the harness performs (oracle pre-probes, MESI transition derivation)
uses quiet lookups, so a clean harnessed run is bit-identical to
driving the same accesses directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultInjectionError, ProtocolError
from repro.resilience.auditor import ProtocolAuditor
from repro.resilience.faults import FaultInjector, FaultPlan, InjectedFault
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.telemetry import attach_observer, tracer_from_env
from repro.types import Access
from repro.verify.coverage import CoverageMap
from repro.verify.oracle import ValueOracle
from repro.verify.steps import AccessStep, FaultStep

#: Default audit cadence for conformance runs: tight enough that a
#: corruption is caught within a few dozen steps, loose enough that a
#: 10k-step fuzz run stays fast.
DEFAULT_VERIFY_AUDIT_INTERVAL = 64


def build_system(
    spec,
    num_cores: int = 4,
    l1_kb: int = 1,
    l2_kb: int = 4,
    seed: int = 0,
) -> System:
    """A small system with an (initially idle) fault injector attached."""
    config = SystemConfig(num_cores=num_cores, l1_kb=l1_kb, l2_kb=l2_kb, scheme=spec)
    injector = FaultInjector(FaultPlan(seed=seed))
    return System(config, fault_injector=injector)


class VerifyHarness:
    """Drives schedule steps against a system under full monitoring."""

    def __init__(
        self,
        system: System,
        *,
        audit_interval: int = DEFAULT_VERIFY_AUDIT_INTERVAL,
        oracle: bool = True,
        coverage: "CoverageMap | None" = None,
        fault_seed: int = 0,
    ) -> None:
        self.system = system
        self.injector = system.fault_injector
        if self.injector is None:
            self.injector = FaultInjector(FaultPlan(seed=fault_seed))
            self.injector.attach(system)
            system.fault_injector = self.injector
        self.oracle = ValueOracle() if oracle else None
        if coverage is not None:
            attach_observer(system, coverage)
        self.auditor = ProtocolAuditor(interval=max(1, audit_interval))
        self.auditor.install(system)
        self.now = 0
        self.executed = 0

    @property
    def injected(self) -> "list[InjectedFault]":
        return self.injector.injected

    def run_step(self, step) -> None:
        """Execute one step; raises on a protocol or oracle violation."""
        if isinstance(step, FaultStep):
            self.injector.apply_now(self.system, step.to_fault())
            return
        core, addr = step.core, step.addr
        kind = step.access_kind()
        private = self.system.cores[core]
        pre = private.state_of(addr)
        latency = self.system.access(Access(core, addr, kind), self.now)
        # The auditor's recorder is always attached, so this is never off.
        self.system.home.observer.emit(
            f"mesi:{pre.value}->{private.state_of(addr).value}:{step.kind}",
            cycle=self.now, core=core, addr=addr,
        )
        self.now += max(1, latency)
        if self.oracle is not None:
            self.oracle.observe(self.system, core, addr, kind, pre)
        self.executed += 1
        if self.executed % self.auditor.interval == 0:
            self.auditor.audit(self.system)

    def finish(self) -> None:
        """Close the run with a final full audit."""
        self.auditor.audit(self.system)


@dataclass
class ScheduleResult:
    """Outcome of one schedule execution."""

    violation: "str | None" = None
    #: Index of the step whose execution raised, None for clean runs.
    fail_step: "int | None" = None
    #: Access steps actually executed (fault steps excluded).
    executed: int = 0
    coverage: "CoverageMap | None" = None
    injected: "list[InjectedFault]" = field(default_factory=list)
    #: True when a fault pseudo-step could not be applied (its target
    #: was not live); the shrinker treats such schedules as non-failing.
    fault_unapplied: bool = False

    @property
    def failed(self) -> bool:
        return self.violation is not None


def run_schedule(
    steps,
    *,
    system: "System | None" = None,
    spec=None,
    num_cores: int = 4,
    l1_kb: int = 1,
    l2_kb: int = 4,
    seed: int = 0,
    audit_interval: int = DEFAULT_VERIFY_AUDIT_INTERVAL,
    oracle: bool = True,
    coverage: "CoverageMap | None" = None,
) -> ScheduleResult:
    """Run ``steps`` on a fresh (or supplied) system under monitoring.

    Protocol errors, invariant violations, and oracle violations all
    end the run and are reported as the result's ``violation``; a
    :class:`~repro.errors.FaultInjectionError` (the fault pseudo-step's
    target is gone — typical while shrinking away its setup) ends the
    run cleanly with ``fault_unapplied`` set.
    """
    if system is None:
        if spec is None:
            raise ValueError("run_schedule needs a system or a scheme spec")
        system = build_system(spec, num_cores, l1_kb, l2_kb, seed=seed)
    tracer = tracer_from_env()
    if tracer is not None:
        attach_observer(system, tracer)
    harness = VerifyHarness(
        system,
        audit_interval=audit_interval,
        oracle=oracle,
        coverage=coverage,
        fault_seed=seed,
    )
    result = ScheduleResult(coverage=coverage)
    try:
        for index, step in enumerate(steps):
            try:
                harness.run_step(step)
            except ProtocolError as err:
                result.violation = f"{type(err).__name__}: {err}"
                result.fail_step = index
                break
        else:
            harness.finish()
    except FaultInjectionError:
        result.fault_unapplied = True
    except ProtocolError as err:
        # The closing audit tripped: blame the last step.
        result.violation = f"{type(err).__name__}: {err}"
        result.fail_step = max(0, len(list(steps)) - 1) if steps else None
    finally:
        if tracer is not None:
            tracer.close()
    result.executed = harness.executed
    result.injected = list(harness.injected)
    return result
