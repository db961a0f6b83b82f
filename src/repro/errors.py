"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent :class:`~repro.sim.config.SystemConfig`."""


class ProtocolError(ReproError):
    """A coherence-protocol invariant was violated.

    This indicates a bug in the simulator (or a deliberately corrupted
    state in a test), never a property of the simulated workload.
    """


class InvariantViolation(ProtocolError):
    """A protocol invariant failed, with structured diagnostic context.

    Raised by the invariant checkers and by the online
    :class:`~repro.resilience.auditor.ProtocolAuditor`. Beyond the plain
    message it carries the corrupted address, the cores involved, the
    home bank, and (when auditing is enabled) the last few transactions
    the flight recorder captured for that address.
    """

    def __init__(
        self,
        message: str,
        *,
        addr: "int | None" = None,
        cores: "tuple[int, ...] | list[int]" = (),
        bank: "int | None" = None,
        history: "tuple | list" = (),
    ) -> None:
        super().__init__(message)
        self.message = message
        self.addr = addr
        self.cores = tuple(cores)
        self.bank = bank
        self.history = tuple(history)

    def __str__(self) -> str:
        parts = [self.message]
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.cores:
            parts.append(f"cores={list(self.cores)}")
        if self.bank is not None:
            parts.append(f"home_bank={self.bank}")
        if self.history:
            trace = "; ".join(str(record) for record in self.history)
            parts.append(f"last_transactions=[{trace}]")
        return " | ".join(parts)


class OracleViolation(InvariantViolation):
    """The sequentially-consistent reference memory oracle disagreed.

    Raised by :class:`~repro.verify.oracle.ValueOracle` when a load
    observes a value version older than the address's last writer, or
    when a completed store leaves another core holding a copy. Unlike
    the structural invariant checks this validates the *data* the
    protocol delivers, so it catches lost invalidations at the exact
    access that reads the stale copy.
    """


class RecoveryError(ReproError):
    """A repair step could not reconstruct a consistent tracking state
    (e.g. the private caches themselves disagree about ownership)."""


class RecoveryEscalation(InvariantViolation):
    """Recovery escalated to abort.

    Raised by :class:`~repro.recovery.manager.RecoveryManager` when a
    violation cannot be repaired within the
    :class:`~repro.recovery.manager.RecoveryPolicy` bounds: the repair
    budget is exhausted, the violation carries no diagnosable address,
    the probe found contradictory ground truth, or (under
    ``repair-strict``) a previously repaired address trips again.
    The original violation is chained as ``__cause__``.
    """


class FaultInjectionError(ReproError):
    """A :class:`~repro.resilience.faults.FaultPlan` could not be applied
    (e.g. the targeted address is not currently tracked anywhere)."""


class TraceError(ReproError):
    """A malformed trace record or an access outside the configured system."""


class RunTimeoutError(ReproError):
    """A single simulation exceeded the harness per-run timeout."""


class ArtifactWriteError(ReproError):
    """An artifact (cache entry, journal record, trace capture) could
    not be durably written — most commonly ``ENOSPC``.

    Raised instead of a raw :class:`OSError` by the artifact writers in
    :mod:`repro.analysis.cache`, :mod:`repro.parallel.journal`, and
    :mod:`repro.workloads.capture` after cleaning up their partial
    temporary files, so a full disk degrades a run (skipped cache
    entry, disabled journaling) instead of littering ``*.tmp`` files
    and killing the sweep with an opaque traceback.
    """

    def __init__(self, message: str, *, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class ShutdownRequested(BaseException):
    """The operator asked the process to stop (SIGINT/SIGTERM).

    Deliberately a :class:`BaseException` — like ``KeyboardInterrupt``
    — so the harness's ``keep_going`` machinery can never swallow an
    operator interrupt as just another failed run. Raised by the signal
    handlers :func:`repro.parallel.shutdown.graceful_scope` installs; the
    sweep executor unwinds cleanly (journal already holds every
    completed point) and the CLIs exit with
    :data:`repro.parallel.shutdown.EXIT_INTERRUPTED` after printing a
    ``--resume`` hint.
    """

    def __init__(self, signum: "int | None" = None) -> None:
        super().__init__(f"shutdown requested (signal {signum})")
        self.signum = signum


class WorkerCrashError(ReproError):
    """A sweep worker process died (or hung) while computing a point.

    Used by the supervised :func:`~repro.parallel.executor.run_sweep`
    to report points whose worker crashed out of every retry, so the
    failure survives round-trips through the string-serialized
    :class:`~repro.analysis.runner.RunFailure` record.
    """
