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

One hook exists for the parallel sweep engine: inside an
:func:`answering` scope, :func:`cached_run` first asks the scope's
callable for the point, and simulates or reads the cache only when it
answers None. Two scopes use it:

* :func:`recording_points` records the requested (app, scheme, scale)
  points instead of simulating, so an experiment's point list can be
  harvested and fanned out over a worker pool (see
  :mod:`repro.parallel.planner`);
* :meth:`repro.parallel.SweepReport.serve` answers each swept point
  from the sweep's report, so a figure rendered in that scope neither
  reads the swept points back from disk nor recomputes one that failed
  (its failure is appended to the active policy instead). Outside the
  scope nothing of the sweep is left.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import sys
import tempfile

from repro.analysis.runner import RunScale, run_app_guarded
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


def point_key(app: str, scheme, scale: RunScale) -> str:
    """The stable cache key of one (app, scheme, scale) sweep point."""
    payload = f"v{CACHE_VERSION}|{app}|{scheme!r}|{scale!r}"
    faults = os.environ.get("REPRO_FAULTS", "").strip()
    if faults:
        # Fault-injected runs must never collide with clean entries (or
        # with runs under a different plan or seed). Clean runs keep the
        # historical key, so existing caches stay valid.
        payload += (
            f"|faults={faults}"
            f"|fault_seed={os.environ.get('REPRO_FAULT_SEED', '').strip()}"
        )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def has_entry(app: str, scheme, scale: RunScale) -> bool:
    """True when a published cache entry exists for this point."""
    if not cache_enabled():
        return False
    return (cache_dir() / f"{point_key(app, scheme, scale)}.json").exists()


# ----------------------------------------------------------------------
# Answering scopes: planning mode and sweep reports (repro.parallel hooks)
# ----------------------------------------------------------------------

#: When not None, :func:`cached_run` asks this callable for each point
#: first (see :func:`answering`).
_ANSWER = None


@contextlib.contextmanager
def answering(answer):
    """Let ``answer(app, scheme, scale)`` answer :func:`cached_run`.

    Inside the ``with`` body :func:`cached_run` returns what ``answer``
    returns for the point, and runs as usual when it returns None.
    Scopes restore the previous callable on exit, so they nest.
    """
    global _ANSWER
    previous = _ANSWER
    _ANSWER = answer
    try:
        yield
    finally:
        _ANSWER = previous


@contextlib.contextmanager
def recording_points():
    """Record the points :func:`cached_run` is asked for, run nothing.

    Inside the ``with`` body every :func:`cached_run` call appends its
    ``(app, scheme, scale)`` tuple to the yielded list and returns a
    cheap placeholder result (``meta["planned"]``, ``cycles == 1`` so
    normalizations stay finite). No simulation runs and no cache I/O
    happens.
    """
    recorded: "list[tuple]" = []

    def record(app: str, scheme, scale: RunScale) -> RunResult:
        recorded.append((app, scheme, scale))
        return _planning_result(app, scheme)

    with answering(record):
        yield recorded


def _planning_result(app: str, scheme) -> RunResult:
    stats = SimStats()
    stats.cycles = 1
    return RunResult(
        app=app,
        scheme=getattr(scheme, "name", type(scheme).__name__),
        stats=stats,
        meta={"planned": True},
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

    Inside an :func:`answering` scope the scope's callable answers
    first: :func:`recording_points` records the point and returns a
    placeholder (planning mode), and a sweep report's ``serve()``
    returns the point's swept result.
    """
    from repro.analysis.runner import scale_from_env

    scale = scale or scale_from_env()
    if _ANSWER is not None:
        answer = _ANSWER(app, scheme, scale)
        if answer is not None:
            return answer
    if not cache_enabled():
        return run_app_guarded(app, scheme, scale)
    path = cache_dir() / f"{point_key(app, scheme, scale)}.json"
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
