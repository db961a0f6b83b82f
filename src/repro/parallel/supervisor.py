"""Supervision policy for the parallel sweep executor.

:class:`SupervisorPolicy` bounds how :func:`repro.parallel.executor.run_sweep`
reacts to worker failure: how many times a broken pool is respawned, how
crashed points are retried once the executor degrades to one-at-a-time
isolation, how long the executor waits without *any* point completing
before declaring the pool hung, and the exponential backoff (with
jitter) inserted between respawns so a struggling machine is not
hammered with immediate pool rebuilds.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class SupervisorPolicy:
    """Bounds for worker-crash and hang handling in a sweep.

    ``heartbeat_s`` is a *progress* deadline, not a per-point timeout:
    it only trips when no in-flight point completes for that long, which
    is what distinguishes a hung worker from a merely slow sweep. The
    default (None) never trips — per-run timeouts are the
    :class:`~repro.analysis.runner.HarnessPolicy`'s job; the heartbeat
    exists for workers stuck outside the cooperative deadline's reach.
    """

    #: Progress deadline in finite positive seconds; None disables hang
    #: detection.
    heartbeat_s: "float | None" = None
    #: How many times a broken (or hung) pool is rebuilt before the
    #: executor degrades to isolated serial execution.
    max_pool_respawns: int = 2
    #: Extra attempts per point in degraded (isolated) execution.
    max_point_retries: int = 1
    #: Exponential backoff between respawns: base * 2**n, capped.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    #: Uniform random jitter added on top of each backoff.
    jitter_s: float = 0.25

    def __post_init__(self) -> None:
        heartbeat = self.heartbeat_s
        if heartbeat is not None and not _valid_heartbeat(heartbeat):
            raise ValueError("heartbeat_s must be finite and positive (or None)")
        if self.max_pool_respawns < 0 or self.max_point_retries < 0:
            raise ValueError("respawn/retry bounds must be >= 0")

    def backoff_delay(self, attempt: int, rng: "random.Random | None" = None) -> float:
        """Delay before respawn number ``attempt`` (1-based)."""
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** max(0, attempt - 1)),
        )
        jitter = (rng or random).uniform(0.0, self.jitter_s)
        return base + jitter


def _valid_heartbeat(seconds: float) -> bool:
    """True for a finite positive number of seconds.

    ``nan`` would make every progress wait return at once and ``inf``
    overflows the pool's wait deadline, so both are refused.
    """
    return math.isfinite(seconds) and seconds > 0


def supervisor_from_env() -> SupervisorPolicy:
    """A :class:`SupervisorPolicy` honouring ``REPRO_HEARTBEAT``.

    ``REPRO_HEARTBEAT`` (seconds, finite and positive) arms hang detection
    for sweeps launched through the CLI; unset or ``off`` leaves it
    disabled. Invalid values warn on stderr and are ignored — never a
    silent misconfiguration.
    """
    raw = os.environ.get("REPRO_HEARTBEAT", "").strip().lower()
    if not raw or raw in ("off", "0", "no", "false", "none"):
        return SupervisorPolicy()
    try:
        heartbeat = float(raw)
    except ValueError:
        heartbeat = -1.0
    if not _valid_heartbeat(heartbeat):
        print(
            f"repro: ignoring invalid REPRO_HEARTBEAT={raw!r} (expected a "
            f"finite positive number of seconds); hang detection is DISABLED",
            file=sys.stderr,
        )
        return SupervisorPolicy()
    return SupervisorPolicy(heartbeat_s=heartbeat)
