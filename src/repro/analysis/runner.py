"""Single-run driver used by examples, tests, and benchmarks.

Besides :func:`run_app` (one application under one scheme), this module
hosts the hardened harness policy: :func:`run_app_guarded` wraps a run
with a per-run timeout, bounded retry, and — under ``keep_going`` — the
collection of per-app failures instead of aborting a whole figure sweep
on the first crash. Timeouts are enforced with the cooperative deadline
of :mod:`repro.sim.deadline`, so they work in any thread and inside
:mod:`repro.parallel` pool workers. See ``docs/harness.md`` and
``docs/resilience.md``.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

from repro.recovery import recovery_from_env
from repro.resilience.auditor import ProtocolAuditor, auditor_from_env
from repro.resilience.faults import injector_from_env
from repro.sim.deadline import deadline_scope
from repro.sim.config import SystemConfig
from repro.sim.engine import run_trace
from repro.sim.results import RunResult
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.telemetry import metrics_from_env, phase, tracer_from_env
from repro.workloads.generator import generate_streams
from repro.workloads.profiles import WorkloadProfile, profile


@dataclass(frozen=True)
class RunScale:
    """How big a simulation to run.

    The paper simulates 128 cores for billions of instructions; the
    benchmark harness defaults to a proportionally scaled machine that
    preserves every capacity ratio (see DESIGN.md §1). Set the
    ``REPRO_SCALE`` environment variable to ``quick`` / ``default`` /
    ``full`` to pick a preset.
    """

    num_cores: int = 32
    total_accesses: int = 48_000
    seed: int = 1
    #: Private cache sizes. Shrunk from Table I so that working sets warm
    #: up within short traces; every capacity *ratio* (L1:L2:LLC and the
    #: directory-to-private ratios) is identical to the paper's.
    l1_kb: int = 8
    l2_kb: int = 32
    #: Spill-policy observation window, scaled with the trace length so
    #: the per-bank controllers see enough windows to adapt (the paper's
    #: 8192-access windows assume billions of simulated instructions).
    spill_window: int = 128

    @classmethod
    def quick(cls) -> "RunScale":
        """Small runs for CI-style smoke benchmarks."""
        return cls(num_cores=16, total_accesses=20_000, spill_window=96)

    @classmethod
    def default(cls) -> "RunScale":
        """The standard benchmark scale."""
        return cls()

    @classmethod
    def full(cls) -> "RunScale":
        """Closer to paper scale (slow in pure Python)."""
        return cls(
            num_cores=64,
            total_accesses=250_000,
            l1_kb=16,
            l2_kb=64,
            spill_window=512,
        )

    def tiny_spec(self, ratio: float, policy: str = "gnru", spill: bool = False):
        """A :class:`~repro.sim.config.TinySpec` with this scale's window."""
        from repro.sim.config import TinySpec

        return TinySpec(
            ratio=ratio, policy=policy, spill=spill, spill_window=self.spill_window
        )

    def make_config(self, scheme) -> "SystemConfig":
        """Build the :class:`SystemConfig` for this scale."""
        return SystemConfig(
            num_cores=self.num_cores,
            l1_kb=self.l1_kb,
            l2_kb=self.l2_kb,
            scheme=scheme,
        )


def scale_from_env() -> RunScale:
    """Resolve the run scale from ``REPRO_SCALE`` (default: ``default``).

    An unknown name raises :class:`ValueError`: a mistyped scale would
    otherwise change every number without a word.
    """
    raw = os.environ.get("REPRO_SCALE", "").strip()
    name = raw.lower() or "default"
    if name == "quick":
        return RunScale.quick()
    if name == "full":
        return RunScale.full()
    if name == "default":
        return RunScale.default()
    raise ValueError(
        f"unknown REPRO_SCALE={raw!r}: expected quick, default or full"
    )


def run_app(
    app: "str | WorkloadProfile",
    scheme,
    scale: "RunScale | None" = None,
    config: "SystemConfig | None" = None,
) -> RunResult:
    """Simulate one application under one coherence-tracking scheme.

    Args:
        app: application name (Table II) or a custom profile.
        scheme: a scheme spec (``SparseSpec``, ``TinySpec``, ...).
        scale: run size; defaults to :func:`scale_from_env`.
        config: full config override; when given, ``scale.num_cores`` is
            ignored and only the trace length/seed are used.
    """
    scale = scale or scale_from_env()
    if isinstance(app, str):
        app = profile(app)
    if config is None:
        config = scale.make_config(scheme)
    metrics = metrics_from_env()
    tracer = tracer_from_env()
    with phase(metrics, "generate"):
        streams = generate_streams(
            app, config, scale.total_accesses, seed=scale.seed
        )
    injector = injector_from_env()
    system = System(config, fault_injector=injector)
    auditor = auditor_from_env()
    recovery = recovery_from_env()
    if recovery is not None and auditor is None:
        # Recovery can only act at audit windows; turn detection on.
        auditor = ProtocolAuditor()
    try:
        with phase(metrics, "simulate"):
            stats = run_trace(
                system,
                streams,
                auditor=auditor,
                recovery=recovery,
                tracer=tracer,
            )
    finally:
        if tracer is not None:
            tracer.close()
    if metrics is not None:
        _harvest_metrics(metrics, stats, scheme, tracer)
        metrics.publish(stats)
    meta = {"scheme_spec": scheme, "num_cores": config.num_cores}
    if injector is not None:
        meta["injected_faults"] = len(injector.injected)
    if recovery is not None and recovery.events:
        meta["repairs"] = recovery.repairs
    return RunResult(
        app=app.name,
        scheme=getattr(scheme, "name", type(scheme).__name__),
        stats=stats,
        meta=meta,
    )


def _harvest_metrics(metrics, stats, scheme, tracer) -> None:
    """Fold a finished run's statistics into the metrics registry.

    Transaction counters and per-scheme structure gauges come from the
    deterministic simulation state; ``trace:events`` counts what the
    tracer emitted (when one was on). The ``phase:*`` timers recorded
    around this call are the only wall-clock (nondeterministic) part of
    the snapshot.
    """
    for name in (
        "accesses",
        "reads",
        "writes",
        "llc_transactions",
        "llc_misses",
        "invalidations",
        "back_invalidations",
        "spills",
    ):
        value = getattr(stats, name)
        if value:
            metrics.count(f"txn:{name}", value)
    metrics.gauge("llc_miss_rate", stats.llc_miss_rate)
    metrics.gauge("lengthened_fraction", stats.lengthened_fraction)
    scheme_name = getattr(scheme, "name", type(scheme).__name__)
    for name, value in stats.structures.items():
        metrics.gauge(f"{scheme_name}:{name}", value)
    if tracer is not None:
        metrics.count("trace:events", tracer.emitted)


# ----------------------------------------------------------------------
# Hardened harness: keep-going, per-run timeout, bounded retry
# ----------------------------------------------------------------------

@dataclass
class RunFailure:
    """One (app, scheme) run that exhausted its attempts."""

    app: str
    scheme: str
    error: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.app}/{self.scheme}: {self.error} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass
class HarnessPolicy:
    """How :func:`run_app_guarded` reacts to failing runs.

    With the default policy a failing run raises immediately — exactly
    the pre-hardening behaviour. Under ``keep_going`` the failure is
    recorded in :attr:`failures` and a placeholder result (empty stats,
    ``meta["failed"]``) is returned so a sweep can finish and report all
    broken (app, scheme) cells at once.
    """

    keep_going: bool = False
    #: Per-attempt wall-clock limit in seconds (None = unlimited). The
    #: limit is a cooperative deadline checked inside the trace engine
    #: and the stream generator (see :mod:`repro.sim.deadline`), so it
    #: works on every platform, in any thread, and in pool workers.
    timeout_s: "float | None" = None
    #: Additional attempts after the first failure.
    max_retries: int = 0
    failures: "list[RunFailure]" = field(default_factory=list)


#: Policy consulted by :func:`run_app_guarded`; swapped via :func:`harness`.
_POLICY = HarnessPolicy()


@contextlib.contextmanager
def harness(policy: HarnessPolicy):
    """Install ``policy`` as the active harness policy for a ``with`` body."""
    global _POLICY
    previous = _POLICY
    _POLICY = policy
    try:
        yield policy
    finally:
        _POLICY = previous


def active_policy() -> HarnessPolicy:
    """The harness policy currently in force."""
    return _POLICY


def run_app_guarded(
    app: "str | WorkloadProfile",
    scheme,
    scale: "RunScale | None" = None,
    config: "SystemConfig | None" = None,
    policy: "HarnessPolicy | None" = None,
) -> RunResult:
    """:func:`run_app` under the active :class:`HarnessPolicy`.

    Retries up to ``policy.max_retries`` extra times; each attempt is
    bounded by ``policy.timeout_s`` (a cooperative wall-clock deadline
    raising :class:`~repro.errors.RunTimeoutError`). When every attempt
    fails: under ``keep_going`` the failure is appended to
    ``policy.failures`` and a placeholder :class:`RunResult` is
    returned, otherwise the last error propagates.
    """
    policy = policy if policy is not None else _POLICY
    app_name = app if isinstance(app, str) else app.name
    scheme_name = getattr(scheme, "name", type(scheme).__name__)
    attempts = 1 + max(0, policy.max_retries)
    last_error: "BaseException | None" = None
    for _attempt in range(attempts):
        try:
            with deadline_scope(policy.timeout_s):
                return run_app(app, scheme, scale, config)
        except KeyboardInterrupt:
            raise
        except Exception as err:  # noqa: BLE001 - harness boundary
            last_error = err
    assert last_error is not None
    if not policy.keep_going:
        raise last_error
    policy.failures.append(
        RunFailure(
            app=app_name,
            scheme=scheme_name,
            error=f"{type(last_error).__name__}: {last_error}",
            attempts=attempts,
        )
    )
    return RunResult(
        app=app_name,
        scheme=scheme_name,
        stats=SimStats(),
        meta={"failed": True, "error": str(last_error)},
    )
