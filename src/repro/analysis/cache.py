"""On-disk cache of simulation results.

Many of the paper's figures share the same runs (every normalized figure
needs the 2x-sparse baseline of all seventeen applications), so the
benchmark harness caches finished :class:`~repro.sim.results.RunResult`
objects as JSON under ``.repro_cache/``.

The cache key includes the scheme spec, the run scale, and a version
constant that is bumped whenever simulator behaviour changes. Set
``REPRO_CACHE=off`` to disable, or delete the directory to clear.

The cache is crash-safe: entries are written to a temporary file and
published with an atomic ``os.replace``, so a killed sweep never leaves
a truncated JSON behind. If a corrupt entry is found anyway (e.g.
written by an older version), it is quarantined as ``<entry>.bad`` and
the run recomputed instead of aborting the whole figure. Quarantine
overwrites that key's previous ``.bad`` file, so ``.bad`` files never
outnumber cache entries. A write that fails (typically ``ENOSPC``)
degrades the run to uncached instead of crashing. Atomic
publication also makes the cache safe under *concurrent* writers: the
:mod:`repro.parallel` sweep executor routes every completed point
through this module, and two processes racing on the same point both
publish complete, identical entries (runs are deterministic), with the
last ``os.replace`` winning.

Two hooks exist for the parallel sweep engine:

* :func:`recording_points` flips :func:`cached_run` into a planning
  mode that records the requested (app, scheme, scale) points instead
  of simulating, so an experiment's point list can be harvested and
  fanned out over a worker pool (see :mod:`repro.parallel.planner`).
* :func:`mark_failed` registers a point that already exhausted its
  attempts in a pool worker; under a ``keep_going`` policy a later
  :func:`cached_run` for that point replays the recorded failure
  instead of recomputing (and timing out / crashing) a second time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import tempfile

from repro.analysis.runner import (
    RunFailure,
    RunScale,
    active_policy,
    run_app_guarded,
)
from repro.errors import ArtifactWriteError
from repro.sim.results import RunResult
from repro.sim.stats import SimStats

#: Bump when a simulator change invalidates previously cached results.
CACHE_VERSION = 1


def cache_dir() -> pathlib.Path:
    """The cache directory (``REPRO_CACHE_DIR`` or ``./.repro_cache``)."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


#: The ``REPRO_CACHE`` values (any case) that disable the cache; ``on``
#: and unset enable it, and the figure CLI refuses anything else.
CACHE_OFF = ("off", "0", "no")


def cache_enabled() -> bool:
    """False when caching is disabled via ``REPRO_CACHE=off``."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in CACHE_OFF


def _key(app: str, scheme, scale: RunScale) -> str:
    payload = f"v{CACHE_VERSION}|{app}|{scheme!r}|{scale!r}"
    faults = os.environ.get("REPRO_FAULTS", "").strip()
    if faults:
        # Fault-injected runs must never collide with clean entries (or
        # with runs under a different plan/seed/recovery policy). Clean
        # runs keep the historical key, so existing caches stay valid.
        payload += (
            f"|faults={faults}"
            f"|fault_seed={os.environ.get('REPRO_FAULT_SEED', '').strip()}"
            f"|recovery={os.environ.get('REPRO_RECOVERY', '').strip()}"
        )
    metrics = os.environ.get("REPRO_METRICS", "").strip()
    if metrics:
        # Metrics-bearing runs dump an extra (wall-clock) telemetry
        # section; keep them apart from clean entries so a metrics run
        # never poisons the deterministic cache (tracing does not alter
        # the dump and needs no key component).
        payload += f"|metrics={metrics}"
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def point_key(app: str, scheme, scale: RunScale) -> str:
    """The stable cache key of one (app, scheme, scale) sweep point."""
    return _key(app, scheme, scale)


def has_entry(app: str, scheme, scale: RunScale) -> bool:
    """True when a published cache entry exists for this point."""
    if not cache_enabled():
        return False
    return (cache_dir() / f"{_key(app, scheme, scale)}.json").exists()


# ----------------------------------------------------------------------
# Planning mode and worker-failure replay (repro.parallel hooks)
# ----------------------------------------------------------------------

#: When not None, :func:`cached_run` records points here instead of
#: simulating (see :func:`recording_points`).
_RECORDER: "list[tuple] | None" = None

#: Points a pool worker already failed on, keyed by :func:`point_key`.
_FAILED_MARKS: "dict[str, RunFailure]" = {}


@contextlib.contextmanager
def recording_points():
    """Record the points :func:`cached_run` is asked for, run nothing.

    Inside the ``with`` body every :func:`cached_run` call appends its
    ``(app, scheme, scale)`` tuple to the yielded list and returns a
    cheap placeholder result (``meta["planned"]``, ``cycles == 1`` so
    normalizations stay finite). No simulation runs and no cache I/O
    happens. Scopes restore the previous recorder on exit, so they nest.
    """
    global _RECORDER
    previous = _RECORDER
    recorded: "list[tuple]" = []
    _RECORDER = recorded
    try:
        yield recorded
    finally:
        _RECORDER = previous


def _planning_result(app: str, scheme) -> RunResult:
    stats = SimStats()
    stats.cycles = 1
    return RunResult(
        app=app,
        scheme=getattr(scheme, "name", type(scheme).__name__),
        stats=stats,
        meta={"planned": True},
    )


def mark_failed(key: str, failure: RunFailure) -> None:
    """Register a point whose pool-worker run exhausted its attempts.

    Under a ``keep_going`` harness policy, :func:`cached_run` replays
    the failure for that point — appending a copy to the active policy's
    ``failures`` and returning a placeholder result, exactly as a serial
    recompute would, but without paying for the doomed run again.
    """
    _FAILED_MARKS[key] = failure


def clear_failed_marks() -> None:
    """Forget all :func:`mark_failed` registrations (tests, new sweeps)."""
    _FAILED_MARKS.clear()


def _replay_failure(app: str, scheme, failure: RunFailure) -> RunResult:
    policy = active_policy()
    policy.failures.append(dataclasses.replace(failure))
    return RunResult(
        app=app,
        scheme=getattr(scheme, "name", type(scheme).__name__),
        stats=SimStats(),
        meta={"failed": True, "error": failure.error},
    )


def _load_entry(path: pathlib.Path) -> "RunResult | None":
    """Read one cache entry; quarantine and return None when corrupt."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
        return RunResult(
            app=payload["app"],
            scheme=payload["scheme"],
            stats=SimStats.load(payload["stats"]),
            meta={"cached": True},
        )
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
        _quarantine(path)
        return None


def _quarantine(path: pathlib.Path) -> None:
    """Move a corrupt entry aside as ``<entry>.bad`` for post-mortems.

    ``os.replace`` overwrites the key's previous ``.bad`` file, so
    quarantine keeps at most one per cache key.
    """
    try:
        os.replace(path, path.with_suffix(path.suffix + ".bad"))
    except OSError:
        # Racing process already moved/removed it; recomputing is enough.
        pass


def _store_entry(path: pathlib.Path, result: RunResult) -> None:
    """Atomically publish ``result`` at ``path`` (temp file + replace).

    Any ``OSError`` (typically ``ENOSPC``) during the write raises
    :class:`~repro.errors.ArtifactWriteError` after removing the partial
    temp file, so no ``*.tmp`` litter survives a full disk.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "app": result.app,
        "scheme": result.scheme,
        "stats": result.stats.dump(),
    }
    encoded = json.dumps(payload)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
    except OSError as err:
        raise ArtifactWriteError(
            f"cannot create cache temp file in {path.parent}: {err}",
            path=str(path),
        ) from err
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(encoded)
        os.replace(tmp_name, path)
    except BaseException as err:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(err, OSError):
            raise ArtifactWriteError(
                f"cannot publish cache entry {path.name}: {err}",
                path=str(path),
            ) from err
        raise


def cached_run(app: str, scheme, scale: "RunScale | None" = None) -> RunResult:
    """Like :func:`repro.analysis.runner.run_app`, but disk-cached.

    Runs go through :func:`~repro.analysis.runner.run_app_guarded`, so a
    ``keep_going`` harness policy applies here too; failed placeholder
    results are returned but never written to the cache.

    Inside a :func:`recording_points` scope the point is recorded and a
    placeholder returned instead (planning mode). Points registered via
    :func:`mark_failed` replay their failure under a ``keep_going``
    policy rather than recomputing.
    """
    from repro.analysis.runner import scale_from_env

    scale = scale or scale_from_env()
    if _RECORDER is not None:
        _RECORDER.append((app, scheme, scale))
        return _planning_result(app, scheme)
    if not cache_enabled():
        return run_app_guarded(app, scheme, scale)
    key = _key(app, scheme, scale)
    if _FAILED_MARKS and active_policy().keep_going:
        failure = _FAILED_MARKS.get(key)
        if failure is not None:
            return _replay_failure(app, scheme, failure)
    path = cache_dir() / f"{key}.json"
    cached = _load_entry(path)
    if cached is not None:
        return cached
    result = run_app_guarded(app, scheme, scale)
    if not result.meta.get("failed"):
        try:
            _store_entry(path, result)
        except ArtifactWriteError as err:
            # A full disk degrades the run to uncached instead of
            # discarding a finished simulation.
            print(f"repro: cache write skipped: {err}", file=sys.stderr)
            result.meta["uncached"] = True
    return result
