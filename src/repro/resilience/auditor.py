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

Auditing is opt-in (``--audit`` on the CLI, or ``REPRO_AUDIT=on`` /
``REPRO_AUDIT=<interval>`` in the environment). All audit-time state
inspection uses quiet lookups, so enabling it does not change any
simulated statistic: a clean run produces bit-identical results with
auditing on or off.
"""

from __future__ import annotations

import os
import sys

from repro.errors import InvariantViolation, ProtocolError
from repro.resilience.recorder import FlightRecorder
from repro.telemetry import attach_observer

#: Audit every this-many accesses unless overridden.
DEFAULT_AUDIT_INTERVAL = 1000


class ProtocolAuditor:
    """Runs the invariant checkers every ``interval`` accesses."""

    def __init__(
        self,
        interval: int = DEFAULT_AUDIT_INTERVAL,
        history_depth: int = 8,
    ) -> None:
        self.interval = max(1, int(interval))
        self.recorder = FlightRecorder(depth=history_depth)
        self.audits = 0
        self.violations = 0

    def install(self, system) -> None:
        """Attach the flight recorder to the system's protocol transitions."""
        attach_observer(system, self.recorder)

    def maybe_audit(self, system, processed: int) -> None:
        """Audit when ``processed`` falls on an audit boundary."""
        if processed % self.interval == 0:
            self.audit(system)

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


def auditor_from_env() -> "ProtocolAuditor | None":
    """Build an auditor from ``REPRO_AUDIT``, or None when disabled.

    ``REPRO_AUDIT`` accepts ``on``/``1``/``yes``/``true`` (default
    interval), a positive integer audit interval, or
    ``off``/``0``/``no``/``false``/unset to disable. Anything else —
    a typo like ``ture``, a negative interval — disables auditing too,
    but *loudly*: a warning on stderr, never a silent None, so a
    misconfigured environment cannot masquerade as a clean audit.
    """
    raw = os.environ.get("REPRO_AUDIT", "").strip().lower()
    if not raw or raw in ("off", "0", "no", "false"):
        return None
    if raw in ("on", "1", "yes", "true"):
        return ProtocolAuditor()
    try:
        interval = int(raw)
    except ValueError:
        interval = -1
    if interval <= 0:
        print(
            f"repro: ignoring invalid REPRO_AUDIT={raw!r} (expected "
            f"on/off or a positive audit interval); auditing is DISABLED",
            file=sys.stderr,
        )
        return None
    return ProtocolAuditor(interval=interval)
