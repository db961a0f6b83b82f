"""Cooperative wall-clock deadlines for simulation runs.

The harness timeout used to be implemented with ``SIGALRM``, which only
works on the main thread of a POSIX process — alarms do not survive
inside :class:`~concurrent.futures.ProcessPoolExecutor` workers, whose
tasks run after the pool machinery has already claimed the process.
Instead, a run is bounded by a *deadline*: :func:`deadline_scope` arms a
monotonic-clock expiry for its ``with`` body, and the long-running loops
(the trace engine, stream generation) call :func:`check_deadline` every
few thousand iterations. When the deadline has passed, the check raises
:class:`~repro.errors.RunTimeoutError` at the next opportunity.

The mechanism is cooperative: code that never calls
:func:`check_deadline` (a hung C extension, an arbitrary ``sleep``)
cannot be interrupted. For the simulator that is no restriction — all
run time is spent in the engine loop, which checks every
:data:`CHECK_STRIDE` accesses — and in exchange the timeout works
identically on every platform, in any thread, and in pool workers.

Scopes nest: an inner scope can only tighten the effective deadline,
never extend the outer one.

The same loops run under :func:`collector_paused`: they allocate an
object per access, none of which takes part in a reference cycle, so
the cyclic garbage collector would scan them without ever freeing one.
"""

from __future__ import annotations

import contextlib
import gc
import time

from repro.errors import RunTimeoutError

#: How many engine iterations pass between two deadline checks. At the
#: simulator's typical tens of thousands of accesses per second this
#: bounds the detection latency to well under a second.
CHECK_STRIDE = 1024

#: The armed deadline: ``(expiry_monotonic, limit_seconds)`` or ``None``.
_DEADLINE: "tuple[float, float] | None" = None


@contextlib.contextmanager
def deadline_scope(seconds: "float | None"):
    """Bound the ``with`` body to ``seconds`` of wall clock.

    ``None`` or a non-positive limit leaves any enclosing deadline in
    force but arms nothing new. Nested scopes keep whichever deadline
    expires first.
    """
    global _DEADLINE
    if seconds is None or seconds <= 0:
        yield
        return
    previous = _DEADLINE
    expiry = time.monotonic() + seconds
    if previous is None or expiry < previous[0]:
        _DEADLINE = (expiry, seconds)
    try:
        yield
    finally:
        _DEADLINE = previous


def check_deadline() -> None:
    """Raise :class:`RunTimeoutError` when the armed deadline has passed.

    Cheap enough for hot loops: one global read and, when a deadline is
    armed, one ``time.monotonic()`` call.
    """
    armed = _DEADLINE
    if armed is not None and time.monotonic() > armed[0]:
        raise RunTimeoutError(
            f"run exceeded {armed[1]:g}s wall-clock limit"
        )


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the ``with`` body.

    The collector is re-enabled on exit, also when the body raises,
    but only if it was enabled on entry: a caller that disabled it (a
    timing harness) keeps it disabled.

    Refcounting still frees every object the body drops; only objects
    in a reference cycle would outlive the pause, until the next
    collection. Stream generation and trace runs make none (rule 12 of
    docs/performance.md), so all the pause saves is the collector's
    scans of the objects they keep.

    When it re-enables the collector, the pause first moves every
    tracked object into the oldest generation (``gc.freeze()`` then
    ``gc.unfreeze()``), so the young collections that follow do not
    scan what the body kept. It leaves the generations alone when the
    caller froze objects (``gc.get_freeze_count()`` is not 0), which
    would otherwise be unfrozen. The trade-off: cyclic garbage that is
    still young when the pause ends waits for a full or explicit
    collection. The simulator makes none.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
