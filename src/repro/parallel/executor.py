"""Process-based sweep execution.

:func:`run_sweep` fans a list of independent :class:`SweepPoint`\\ s out
over a :class:`~concurrent.futures.ProcessPoolExecutor` and routes every
completed point through the crash-safe result cache
(:mod:`repro.analysis.cache`), so a figure rendered afterwards finds all
its runs precomputed. The harness semantics of
:func:`~repro.analysis.runner.run_app_guarded` are preserved per worker:

* **timeout** — enforced with the cooperative deadline of
  :mod:`repro.sim.deadline` (``SIGALRM`` would not survive in a pool
  worker, where tasks never run on a fresh main thread's signal state);
* **retries** — each worker retries its point up to
  ``policy.max_retries`` extra times before reporting a failure;
* **keep-going** — worker failures come back as data
  (:class:`~repro.analysis.runner.RunFailure`); under a ``keep_going``
  parent policy they are registered with
  :func:`repro.analysis.cache.mark_failed` so the render pass replays
  them without recomputing, and under a strict policy the first failure
  (in submission order, for determinism) is re-raised in the parent;
* **audit mode** — ``REPRO_*`` environment (audit, scale, cache
  location) is snapshotted at submission time and re-applied in each
  worker, so ``--audit`` sweeps audit every worker's runs.

Determinism: a parallel sweep produces **bit-identical** statistics to
the serial path. Every point's random seed derives from its own
``scale.seed``; nothing depends on pool scheduling, completion order, or
worker identity. The only thing parallelism changes is wall-clock time.

The executor is *supervised*: a worker crash (``BrokenProcessPool``)
no longer kills the sweep. Finished futures are salvaged, the crashed
points are requeued, and the pool is respawned after an exponential
backoff with jitter; a :class:`~repro.parallel.supervisor.SupervisorPolicy`
heartbeat additionally catches workers that hang without progress. Once
the respawn budget is spent the executor degrades to *isolated serial*
execution — each remaining point runs alone in a fresh single-worker
pool, so a poison point that keeps killing its worker is blamed
precisely (and reported as a :class:`~repro.errors.WorkerCrashError`
failure) without taking healthy points, or the parent process, with it.
Completions can be journaled to a crash-safe
:class:`~repro.parallel.journal.SweepJournal`; ``resume=True`` skips
journaled points, so an interrupted sweep recomputes only what is
genuinely missing.

A SIGINT/SIGTERM arriving mid-sweep (see
:func:`repro.parallel.shutdown.graceful_scope`) kills the pool without
waiting and propagates; everything already finished is in the fsynced
journal, so ``--resume`` picks up exactly where the interrupt landed.
A journal append that fails with a disk-full error degrades the sweep
to journal-less operation instead of aborting it, and the report's
``journal_disabled`` note says so.
"""

from __future__ import annotations

import builtins
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import errors as _errors
from repro.analysis import cache as result_cache
from repro.analysis.runner import (
    HarnessPolicy,
    RunFailure,
    active_policy,
    harness,
)
from repro.errors import ArtifactWriteError, ShutdownRequested
from repro.parallel.journal import SweepJournal
from repro.parallel.points import SweepPoint, dedupe_points
from repro.parallel.profiling import RunProfile, SweepSummary, summarize
from repro.parallel.supervisor import SupervisorPolicy, supervisor_from_env
from repro.sim.results import RunResult
from repro.sim.stats import SimStats
from repro.telemetry import jsonl_trace_enabled, merge_worker_traces


def parse_jobs(raw: str) -> "int | None":
    """``raw`` as a worker count, or None unless it is an integer >= 1."""
    try:
        jobs = int(raw)
    except ValueError:
        return None
    return jobs if jobs >= 1 else None


def resolve_jobs(jobs: "int | None" = None) -> int:
    """Resolve the worker count: explicit > ``REPRO_JOBS`` > cpu count.

    A ``REPRO_JOBS`` that is not an integer >= 1 is ignored with a
    warning on stderr (the figure CLI refuses it instead).
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if raw:
            jobs = parse_jobs(raw)
            if jobs is None:
                print(
                    f"repro: ignoring invalid REPRO_JOBS={raw!r} (expected "
                    f"an integer >= 1); using the CPU count",
                    file=sys.stderr,
                )
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def run_tasks(fn, payloads: "list", jobs: "int | None" = None) -> "list":
    """Order-preserving process-pool map for independent tasks.

    A generic sibling of :func:`run_sweep` for work that is not a
    (app, scheme, scale) sweep point — e.g. the conformance fuzzer's
    seeded runs. ``fn`` must be a top-level (picklable-by-reference)
    callable; ``payloads`` and results must pickle. ``jobs <= 1`` (or a
    single payload) runs inline with identical semantics; the result
    list is aligned with ``payloads`` regardless of completion order.
    """
    jobs = min(resolve_jobs(jobs), max(1, len(payloads)))
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    with ProcessPoolExecutor(
        max_workers=jobs,
        # Same initializer as run_sweep: without it, spawn/forkserver
        # children would run with a default environment and silently
        # ignore the parent's REPRO_* settings (audit, scale, cache).
        initializer=_init_worker,
        initargs=(env, None, 0, None),
    ) as pool:
        results = list(pool.map(fn, payloads))
    if jsonl_trace_enabled():
        merge_worker_traces()
    return results


@dataclass
class SweepReport:
    """Everything one :func:`run_sweep` call produced."""

    #: The deduplicated points, in submission order.
    points: "list[SweepPoint]"
    #: One result per point, aligned with :attr:`points`.
    results: "list[RunResult]"
    #: One profile per point, aligned with :attr:`points`.
    profiles: "list[RunProfile]"
    #: Failures collected across workers (submission order).
    failures: "list[RunFailure]" = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    #: How many times a broken/hung pool was rebuilt.
    pool_respawns: int = 0
    #: True when the respawn budget ran out and the tail of the sweep
    #: executed in isolated serial mode.
    degraded_serial: bool = False
    #: Points that crashed their worker out of every retry.
    crashed_points: int = 0
    #: Points satisfied from the sweep journal under ``resume=True``.
    resumed_points: int = 0
    #: Why the sweep journal was disabled mid-sweep (a failed append,
    #: typically a full disk); empty when it never was.
    journal_disabled: str = ""

    def summary(self) -> SweepSummary:
        return summarize(
            self.profiles, self.jobs, self.wall_s, self.journal_disabled
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-worker configuration installed by :func:`_init_worker`.
_WORKER: "dict[str, object]" = {}


def _init_worker(env: "dict[str, str]", timeout_s, max_retries, profile_dir):
    """Pool initializer: re-apply the parent's ``REPRO_*`` environment.

    With the default ``fork`` start method the environment is inherited
    anyway; re-applying it keeps spawn/forkserver children (and any env
    mutation racing pool creation) consistent with the submitting
    process.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    # Traced workers write per-process <trace>.<pid>.part files; the
    # parent fans them into the base trace after the sweep (see
    # repro.telemetry.merge_worker_traces).
    os.environ["REPRO_TRACE_WORKER"] = "1"
    _WORKER["timeout_s"] = timeout_s
    _WORKER["max_retries"] = max_retries
    _WORKER["profile_dir"] = profile_dir


def _execute_point(index: int, point: SweepPoint, policy: HarnessPolicy,
                   profile_dir: "str | None"):
    """Run one point under ``policy``; return (result, profile, profiled path)."""
    profiler = None
    stats_path = None
    start = time.perf_counter()
    with harness(policy):
        if profile_dir is not None and not point.is_cached():
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = result_cache.cached_run(point.app, point.scheme,
                                                 point.scale)
            finally:
                profiler.disable()
        else:
            result = result_cache.cached_run(point.app, point.scheme,
                                             point.scale)
    wall = time.perf_counter() - start
    cache_hit = bool(result.meta.get("cached"))
    failed = bool(result.meta.get("failed"))
    if profiler is not None and not cache_hit and not failed:
        os.makedirs(profile_dir, exist_ok=True)
        stats_path = os.path.join(profile_dir, f"{point.key()}.prof")
        profiler.dump_stats(stats_path)
    rate = 0.0
    if not cache_hit and not failed and wall > 0:
        rate = point.scale.total_accesses / wall
    profile = RunProfile(
        app=point.app,
        scheme=point.scheme_name,
        index=index,
        wall_s=wall,
        accesses_per_s=rate,
        cache_hit=cache_hit,
        failed=failed,
        worker=os.getpid(),
        stats_path=stats_path,
    )
    return result, profile


def _run_point(index: int, point: SweepPoint):
    """Top-level pool task (must be picklable by reference)."""
    policy = HarnessPolicy(
        keep_going=True,  # failures travel back as data, never tracebacks
        timeout_s=_WORKER.get("timeout_s"),
        max_retries=int(_WORKER.get("max_retries") or 0),
    )
    result, profile = _execute_point(
        index, point, policy, _WORKER.get("profile_dir")
    )
    return index, result, profile, list(policy.failures)


def _rebuild_error(failure: RunFailure) -> Exception:
    """Turn a worker's ``"Type: message"`` failure back into an exception.

    Only exception types from :mod:`builtins` and :mod:`repro.errors`
    are reconstructed; anything else becomes a ``RuntimeError`` carrying
    the original text.
    """
    name, sep, message = failure.error.partition(": ")
    exc_type = getattr(_errors, name, None) or getattr(builtins, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        # Bare-typed failures ("KeyError", no separator) reconstruct
        # with no message instead of collapsing to RuntimeError.
        return exc_type(message) if sep else exc_type()
    return RuntimeError(str(failure))


# ----------------------------------------------------------------------
# Parent side: supervision helpers
# ----------------------------------------------------------------------

def _failed_result(point: SweepPoint, error: str) -> RunResult:
    """Keep-going placeholder, same shape as run_app_guarded's."""
    return RunResult(
        app=point.app,
        scheme=point.scheme_name,
        stats=SimStats(),
        meta={"failed": True, "error": error},
    )


def _synthetic_profile(
    point: SweepPoint, index: int, failed: bool = False
) -> RunProfile:
    """Profile stand-in for a point that never produced one (crash/replay)."""
    return RunProfile(
        app=point.app,
        scheme=point.scheme_name,
        index=index,
        wall_s=0.0,
        accesses_per_s=0.0,
        cache_hit=False,
        failed=failed,
        worker=os.getpid(),
    )


def _kill_pool(pool) -> None:
    """Tear a (possibly hung) pool down without waiting on its workers."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _run_isolated(index, point, policy, profile_dir, supervisor, env):
    """Degraded-mode execution: one point, alone, in a fresh 1-worker pool.

    With nothing else in flight, a pool break (or heartbeat expiry) here
    blames this exact point — the property the gang pool cannot provide,
    since a crash there kills innocent in-flight siblings too. Retried
    with backoff up to ``supervisor.max_point_retries`` extra times;
    running the point in a child (never inline in the parent) means a
    poison point that aborts its process cannot take the sweep with it.

    Returns ``(result, profile, failures, crashed)`` with ``crashed=1``
    when every attempt lost its worker.
    """
    attempts = 0
    error = "WorkerCrashError: worker process died while computing this point"
    while attempts <= supervisor.max_point_retries:
        attempts += 1
        if attempts > 1:
            time.sleep(supervisor.backoff_delay(attempts - 1))
        pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_init_worker,
            initargs=(env, policy.timeout_s, policy.max_retries, profile_dir),
        )
        future = pool.submit(_run_point, index, point)
        done, _ = wait({future}, timeout=supervisor.heartbeat_s)
        if not done:
            _kill_pool(pool)
            error = (
                "WorkerCrashError: worker made no progress within the "
                f"{supervisor.heartbeat_s:g}s heartbeat"
            )
            continue
        try:
            _, result, profile, point_failures = future.result()
        except BrokenProcessPool:
            _kill_pool(pool)
            continue
        except Exception as exc:  # unpicklable result, executor bug, ...
            _kill_pool(pool)
            failure = RunFailure(
                app=point.app,
                scheme=point.scheme_name,
                error=f"{type(exc).__name__}: {exc}",
                attempts=attempts,
            )
            return (
                _failed_result(point, failure.error),
                _synthetic_profile(point, index, failed=True),
                [failure],
                0,
            )
        pool.shutdown(wait=True)
        return result, profile, point_failures, 0
    failure = RunFailure(
        app=point.app,
        scheme=point.scheme_name,
        error=error,
        attempts=attempts,
    )
    return (
        _failed_result(point, error),
        _synthetic_profile(point, index, failed=True),
        [failure],
        1,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_sweep(
    points: "list[SweepPoint]",
    jobs: "int | None" = None,
    policy: "HarnessPolicy | None" = None,
    profile_dir: "str | None" = None,
    supervisor: "SupervisorPolicy | None" = None,
    journal: "SweepJournal | None" = None,
    resume: bool = False,
) -> SweepReport:
    """Execute ``points`` over a supervised worker pool, through the cache.

    Args:
        points: the sweep; duplicates (same cache key) run once.
        jobs: worker processes (default: ``REPRO_JOBS`` or cpu count);
            clamped to the number of unique points. ``jobs <= 1`` runs
            inline in this process with identical semantics.
        policy: harness policy applied per worker (timeout, retries,
            keep-going); defaults to the active policy.
        profile_dir: when given, each computed point runs under cProfile
            and dumps its stats there (the ``--profile`` machinery).
        supervisor: crash/hang handling bounds; defaults to
            :func:`~repro.parallel.supervisor.supervisor_from_env`.
        journal: when given, every completed point is appended to this
            crash-safe checkpoint. Without ``resume`` the journal is
            reset first (a fresh sweep).
        resume: skip points the journal already records — ``ok`` points
            load straight from the result cache, ``failed`` points
            replay their recorded failure — and compute only the rest.

    Under a ``keep_going`` policy, worker failures (including crashes,
    reported as :class:`~repro.errors.WorkerCrashError` text) end up in
    the report's ``failures`` and are registered via
    :func:`repro.analysis.cache.mark_failed`; the parent policy's own
    ``failures`` list is *not* extended here, so the figure-render pass
    that follows reports each failure exactly as the serial path would.
    Under a strict policy the first failure (submission order) is
    re-raised after the sweep drains.

    The returned report's ``results`` are bit-identical to what the same
    points produce serially (see the module docstring).
    """
    points = dedupe_points(points)
    policy = policy if policy is not None else active_policy()
    supervisor = supervisor if supervisor is not None else supervisor_from_env()
    jobs = min(resolve_jobs(jobs), max(1, len(points)))
    results: "list[RunResult | None]" = [None] * len(points)
    profiles: "list[RunProfile | None]" = [None] * len(points)
    indexed_failures: "list[tuple[int, RunFailure]]" = []
    start = time.perf_counter()
    pool_respawns = 0
    degraded = False
    crashed_points = 0
    resumed_points = 0
    journal_disabled = ""

    journaled: "dict[str, dict]" = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
        else:
            journal.reset()

    def finish_point(index, point, result, profile, point_failures) -> None:
        """Record a newly computed point (and journal its completion)."""
        nonlocal journal, journal_disabled
        results[index] = result
        profiles[index] = profile
        indexed_failures.extend((index, f) for f in point_failures)
        if journal is None:
            return
        try:
            if point_failures:
                last = point_failures[-1]
                journal.record_failed(
                    point.key(), last.app, last.scheme, last.error,
                    last.attempts,
                )
            else:
                journal.record_ok(point.key())
        except ArtifactWriteError as err:
            # A full disk must not abort a sweep that can still compute:
            # drop to journal-less operation (results keep flowing; only
            # --resume fidelity for *this* sweep is lost) and say so.
            print(
                f"repro: sweep journal disabled: {err}",
                file=sys.stderr,
            )
            journal_disabled = str(err)
            journal = None

    # Resolve journaled points first; only the rest is (re)computed.
    pending: "list[tuple[int, SweepPoint]]" = []
    for index, point in enumerate(points):
        record = journaled.get(point.key())
        if record is not None and record["status"] == "failed":
            failure = RunFailure(
                app=record.get("app", point.app),
                scheme=record.get("scheme", point.scheme_name),
                error=record.get("error", "unknown error"),
                attempts=int(record.get("attempts", 1)),
            )
            results[index] = _failed_result(point, failure.error)
            profiles[index] = _synthetic_profile(point, index, failed=True)
            indexed_failures.append((index, failure))
            resumed_points += 1
        elif record is not None and record["status"] == "ok" and point.is_cached():
            # Journaled complete: a parent-side cache load, no worker.
            seen = len(policy.failures)
            result, profile = _execute_point(index, point, policy, None)
            results[index] = result
            profiles[index] = profile
            indexed_failures.extend((index, f) for f in policy.failures[seen:])
            del policy.failures[seen:]
            resumed_points += 1
        else:
            pending.append((index, point))

    if jobs <= 1 or len(pending) <= 1:
        for index, point in pending:
            seen = len(policy.failures)
            result, profile = _execute_point(index, point, policy,
                                             profile_dir)
            # Hand new failures to the report/registry; the render pass
            # owns appending them to the policy (parity with the pool).
            point_failures = list(policy.failures[seen:])
            del policy.failures[seen:]
            finish_point(index, point, result, profile, point_failures)
    elif pending:
        env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        initargs = (env, policy.timeout_s, policy.max_retries, profile_dir)
        queue: "deque[tuple[int, SweepPoint]]" = deque(pending)
        in_flight: "dict" = {}
        pool = None
        try:
            while queue or in_flight:
                if degraded:
                    # Respawn budget spent: run the tail one point at a
                    # time, each isolated in its own single-worker pool,
                    # so repeat offenders are blamed definitively.
                    while queue:
                        index, point = queue.popleft()
                        result, profile, point_failures, crashed = (
                            _run_isolated(index, point, policy, profile_dir,
                                          supervisor, env)
                        )
                        crashed_points += crashed
                        finish_point(index, point, result, profile,
                                     point_failures)
                    break
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=jobs,
                        initializer=_init_worker,
                        initargs=initargs,
                    )
                while queue and len(in_flight) < jobs:
                    index, point = queue.popleft()
                    future = pool.submit(_run_point, index, point)
                    in_flight[future] = (index, point)
                done, _ = wait(
                    list(in_flight),
                    timeout=supervisor.heartbeat_s,
                    return_when=FIRST_COMPLETED,
                )
                # No completion within the heartbeat means the whole
                # pool made no progress: treat it like a broken pool.
                broken = not done
                for future in done:
                    index, point = in_flight.pop(future)
                    try:
                        _, result, profile, point_failures = future.result()
                    except BrokenProcessPool:
                        broken = True
                        queue.append((index, point))
                    except Exception as exc:
                        failure = RunFailure(
                            app=point.app,
                            scheme=point.scheme_name,
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=1,
                        )
                        finish_point(
                            index, point,
                            _failed_result(point, failure.error),
                            _synthetic_profile(point, index, failed=True),
                            [failure],
                        )
                    else:
                        finish_point(index, point, result, profile,
                                     point_failures)
                if not broken:
                    continue
                # Salvage whatever already finished, requeue the rest
                # (a requeued point that did complete in its worker
                # comes back as a cache hit), and rebuild the pool after
                # a backoff — or degrade once the budget is spent.
                _kill_pool(pool)
                pool = None
                for future, (index, point) in list(in_flight.items()):
                    salvaged = False
                    if future.done():
                        try:
                            _, result, profile, point_failures = future.result()
                            salvaged = True
                        except Exception:
                            salvaged = False
                    if salvaged:
                        finish_point(index, point, result, profile,
                                     point_failures)
                    else:
                        queue.append((index, point))
                in_flight = {}
                pool_respawns += 1
                if pool_respawns > supervisor.max_pool_respawns:
                    degraded = True
                else:
                    time.sleep(supervisor.backoff_delay(pool_respawns))
        except (KeyboardInterrupt, ShutdownRequested):
            # Operator interrupt: every finished point is already
            # journaled (each append is fsynced), so kill the pool
            # without waiting on in-flight work and let the interrupt
            # propagate — the CLI layer prints the --resume hint.
            if pool is not None:
                _kill_pool(pool)
                pool = None
            raise
        finally:
            # Broken pools were already killed (pool = None above); a
            # surviving pool is healthy, so a waiting shutdown is safe.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    if jsonl_trace_enabled():
        merge_worker_traces()

    # Failure reporting stays deterministic (submission order) no matter
    # which worker finished, crashed, or got salvaged first.
    indexed_failures.sort(key=lambda item: item[0])
    failures = [failure for _, failure in indexed_failures]
    if failures:
        if not policy.keep_going:
            raise _rebuild_error(failures[0])
        for index, failure in indexed_failures:
            result_cache.mark_failed(points[index].key(), failure)

    return SweepReport(
        points=points,
        results=results,
        profiles=profiles,
        failures=failures,
        wall_s=time.perf_counter() - start,
        jobs=jobs,
        pool_respawns=pool_respawns,
        degraded_serial=degraded,
        crashed_points=crashed_points,
        resumed_points=resumed_points,
        journal_disabled=journal_disabled,
    )
