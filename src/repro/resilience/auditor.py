"""Online protocol auditing.

A :class:`ProtocolAuditor` periodically re-verifies every protocol
invariant *while the simulation runs*, so a corruption (an injected
fault, or a genuine simulator bug) is caught within one audit window of
its occurrence instead of thousands of accesses later at end-of-run.

The auditor owns a :class:`~repro.resilience.recorder.FlightRecorder`
that it attaches to the system's protocol transitions
(:func:`repro.telemetry.attach_observer`); when an invariant trips, the
raised :class:`~repro.errors.InvariantViolation` is enriched with the
corrupted block's home bank and the last few events the recorder
captured for it.

Auditing is opt-in (``--audit`` on the CLI, which audits every
:data:`DEFAULT_AUDIT_INTERVAL` accesses). All audit-time state
inspection uses quiet lookups, so enabling it does not change any
simulated statistic: a clean run produces bit-identical results with
auditing on or off.
"""

from __future__ import annotations

from repro.errors import InvariantViolation, ProtocolError
from repro.resilience.recorder import FlightRecorder
from repro.telemetry import attach_observer

#: Audit every this-many accesses unless overridden.
DEFAULT_AUDIT_INTERVAL = 1000


class ProtocolAuditor:
    """Runs the invariant checkers every ``interval`` accesses.

    An ``interval`` below 1 raises ``ValueError``: there is no audit
    cadence it could mean.
    """

    def __init__(
        self,
        interval: int = DEFAULT_AUDIT_INTERVAL,
        history_depth: int = 8,
    ) -> None:
        self.interval = int(interval)
        if self.interval < 1:
            raise ValueError(f"audit interval must be at least 1, got {interval}")
        self.recorder = FlightRecorder(depth=history_depth)
        self.audits = 0
        self.violations = 0

    def install(self, system) -> None:
        """Attach the flight recorder to the system's protocol transitions."""
        attach_observer(system, self.recorder)

    def audit(self, system) -> None:
        """Verify every invariant now; raise an enriched violation."""
        self.audits += 1
        try:
            system.check_invariants()
        except InvariantViolation as err:
            self.violations += 1
            raise self._enrich(system, err)
        except ProtocolError as err:
            self.violations += 1
            raise self._enrich(
                system, InvariantViolation(str(err))
            ) from err

    def _enrich(self, system, err: InvariantViolation) -> InvariantViolation:
        if err.addr is not None:
            if err.bank is None:
                err.bank = system.home.bank_of(err.addr)
            if not err.history:
                err.history = self.recorder.history(err.addr)
        return err

