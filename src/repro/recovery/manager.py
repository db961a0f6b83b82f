"""Bounded repair of tripped coherence invariants.

The manager sits between the engine and the auditor: instead of calling
``auditor.audit(system)`` directly, the engine (and the verify harness)
calls :meth:`RecoveryManager.audit`, which catches
:class:`~repro.errors.InvariantViolation` and runs one repair cycle per
violation —

1. **diagnose**: the violation's ``addr`` names the corrupted block;
   violations without an address are undiagnosable and escalate.
2. **quarantine**: the address is remembered; under ``repair-strict`` a
   second violation on the same block escalates instead of re-repairing.
3. **repair**: :meth:`~repro.coherence.base.BaseHome.probe_truth`
   reconstructs the sharer vector / owner from the private caches
   (ground truth, exactly what scrubbing directory hardware does) and
   :meth:`~repro.coherence.base.BaseHome.rebuild_tracking` rewrites the
   tracking structure in place.
4. **re-verify**: a full invariant check confirms the repair took; the
   outer loop then re-runs the audit until it passes clean.
5. **resume**: control returns to the engine, which continues the trace.

The probe's traffic and latency are charged to a dedicated *recovery*
section of the statistics, **not** to the protocol traffic meters, so a
clean run with recovery enabled stays bit-identical to one without it
(the recovery section is published only when at least one repair ran).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from repro.errors import (
    ConfigError,
    InvariantViolation,
    OracleViolation,
    ProtocolError,
    RecoveryError,
    RecoveryEscalation,
)

#: Default repair budget per run.
DEFAULT_MAX_REPAIRS = 8

_MODES = ("abort", "repair", "repair-strict")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a run responds to a tripped invariant.

    ``abort`` is the historical behaviour (the violation propagates).
    ``repair`` rebuilds the corrupted tracking state and resumes, up to
    ``max_repairs`` attempts per run. ``repair-strict`` additionally
    escalates when the *same* block trips twice — a recurring violation
    on one address means the repair is not holding.
    """

    mode: str = "abort"
    max_repairs: int = DEFAULT_MAX_REPAIRS

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(
                f"unknown recovery mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.max_repairs < 0:
            raise ConfigError("max_repairs must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.mode != "abort"

    @property
    def strict(self) -> bool:
        return self.mode == "repair-strict"


@dataclass
class RepairEvent:
    """One completed repair attempt, for the recovery log."""

    addr: int
    violation: str
    action: str
    attempt: int
    verified: bool


class RecoveryManager:
    """Executes the repair cycle and accounts its cost.

    Counters live on the manager (not on :class:`SimStats`) because the
    engine resets the statistics at the warmup boundary; repairs that
    happen during warmup must still appear in the final report. The
    engine publishes them once, after ``system.finalize()``, via
    :meth:`publish`.
    """

    def __init__(self, policy: "RecoveryPolicy | None" = None) -> None:
        self.policy = policy if policy is not None else RecoveryPolicy("repair")
        self.events: "list[RepairEvent]" = []
        self.repairs = 0
        self.failed_repairs = 0
        self.escalations = 0
        #: Addresses repaired at least once this run.
        self.quarantined: "set[int]" = set()
        #: Probe cost, charged to the recovery section only.
        self.probe_messages = 0
        self.repair_cycles = 0

    # ------------------------------------------------------------------
    # Audit-site entry point
    # ------------------------------------------------------------------

    def audit(self, auditor, system) -> None:
        """Run one audit window, repairing violations until it passes.

        With an ``abort`` policy this is exactly ``auditor.audit``.
        Otherwise each :class:`InvariantViolation` triggers one repair
        attempt and the audit re-runs; the loop is bounded by the repair
        budget (every attempt consumes it, and escalation raises).
        """
        if not self.policy.enabled:
            auditor.audit(system)
            return
        while True:
            try:
                auditor.audit(system)
                return
            except OracleViolation:
                # Wrong *data* was observed; no directory rebuild can
                # undo that. Never repaired, always fatal.
                raise
            except InvariantViolation as err:
                self._attempt_repair(system, err)

    # ------------------------------------------------------------------
    # One repair cycle
    # ------------------------------------------------------------------

    def _attempt_repair(self, system, err: InvariantViolation) -> None:
        addr = err.addr
        if addr is None:
            self._escalate(
                f"violation carries no target address, cannot diagnose: {err}",
                err,
            )
        if self.repairs + self.failed_repairs >= self.policy.max_repairs:
            self._escalate(
                f"repair budget exhausted after {self.policy.max_repairs} "
                f"attempt(s); latest violation: {err}",
                err,
                addr=addr,
            )
        if self.policy.strict and addr in self.quarantined:
            self._escalate(
                f"block {addr:#x} tripped an invariant again after a repair "
                f"(repair-strict): {err}",
                err,
                addr=addr,
            )
        self.quarantined.add(addr)
        attempt = len(self.events) + 1
        try:
            truth = system.home.probe_truth(addr)
            action = system.home.rebuild_tracking(addr, truth)
        except (RecoveryError, ProtocolError) as repair_err:
            self.failed_repairs += 1
            self._escalate(
                f"repair of block {addr:#x} failed: {repair_err}",
                err,
                addr=addr,
            )
        self._charge(system)
        # Re-verify: the repaired block must hold up under a full check.
        # A violation elsewhere does not fail *this* repair — the outer
        # loop will diagnose and repair it on the next pass.
        verified = True
        try:
            system.check_invariants()
        except InvariantViolation as still:
            verified = still.addr is not None and still.addr != addr
        except ProtocolError:
            verified = False
        if verified:
            self.repairs += 1
        else:
            self.failed_repairs += 1
        self.events.append(
            RepairEvent(
                addr=addr,
                violation=err.message,
                action=action,
                attempt=attempt,
                verified=verified,
            )
        )
        observer = system.home.observer
        if observer.enabled:
            observer.emit(
                "recovery:repair", addr=addr, action=action, verified=verified
            )

    def _escalate(self, message, cause, *, addr=None) -> None:
        self.escalations += 1
        raise RecoveryEscalation(
            message,
            addr=addr if addr is not None else cause.addr,
            cores=cause.cores,
            bank=cause.bank,
            history=cause.history,
        ) from cause

    def _charge(self, system) -> None:
        """Account the probe's cost in the recovery section.

        The rebuild quiet-probes every private hierarchy (one query and
        one response per core) and pays a worst-case round trip across
        the mesh plus the home tag rewrite — the same shape as the Stash
        scheme's broadcast recovery, which is the closest hardware
        analogue in the model.
        """
        config = system.config
        self.probe_messages += 2 * config.num_cores
        mesh = system.mesh
        max_span = (mesh.width - 1 + mesh.height - 1) * mesh.hop_cycles
        self.repair_cycles += 2 * max_span + config.llc_tag_latency

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def publish(self, stats) -> None:
        """Fill ``stats.recovery`` — only when something actually happened,
        so clean runs keep a bit-identical statistics dump."""
        if not self.events:
            return
        stats.recovery = {
            "repairs": self.repairs,
            "failed_repairs": self.failed_repairs,
            "attempts": len(self.events),
            "quarantined_blocks": len(self.quarantined),
            "probe_messages": self.probe_messages,
            "repair_cycles": self.repair_cycles,
            "escalations": self.escalations,
        }

    def report(self) -> "list[str]":
        """Human-readable repair log lines."""
        return [
            f"repair #{event.attempt}: block {event.addr:#x} "
            f"[{event.action}] "
            f"{'verified' if event.verified else 'NOT verified'} "
            f"<- {event.violation}"
            for event in self.events
        ]


def recovery_from_env() -> "RecoveryManager | None":
    """Build a manager from ``REPRO_RECOVERY``, or None.

    Accepted values: ``abort``/``off`` (and friends) disable recovery;
    ``repair`` / ``repair-strict`` / ``on`` enable it, optionally with a
    budget suffix (``repair:16``). Anything else warns on stderr and
    disables recovery — never silently, mirroring ``auditor_from_env``.
    """
    raw = os.environ.get("REPRO_RECOVERY", "").strip().lower()
    if not raw or raw in ("abort", "off", "0", "no", "false"):
        return None
    mode, _, budget = raw.partition(":")
    if mode in ("on", "1", "yes", "true"):
        mode = "repair"
    if mode not in ("repair", "repair-strict"):
        print(
            f"repro: ignoring invalid REPRO_RECOVERY={raw!r} "
            f"(expected abort, repair, repair-strict, or repair[:N]); "
            f"recovery is DISABLED",
            file=sys.stderr,
        )
        return None
    max_repairs = DEFAULT_MAX_REPAIRS
    if budget:
        try:
            max_repairs = int(budget)
        except ValueError:
            max_repairs = -1
        if max_repairs < 0:
            print(
                f"repro: ignoring invalid REPRO_RECOVERY={raw!r} "
                f"(budget must be a non-negative integer); "
                f"recovery is DISABLED",
                file=sys.stderr,
            )
            return None
    return RecoveryManager(RecoveryPolicy(mode=mode, max_repairs=max_repairs))
