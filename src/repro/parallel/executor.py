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
  parent policy they land in the report, whose :meth:`SweepReport.serve`
  scope replays them to a render pass without recomputing, and under a
  strict policy the first failure (in submission order, for
  determinism) is re-raised in the parent;
* **audit and trace** — the policy's ``audit`` and ``trace_out``
  travel to each worker with its point, like the timeout and retries,
  so ``--audit`` sweeps audit every worker's runs and ``--trace``
  sweeps trace them (into per-worker part files merged afterwards).
  The ``REPRO_*`` environment (scale, cache location, faults) is
  snapshotted at submission time and re-applied in each worker.

Determinism: a parallel sweep produces **bit-identical** statistics to
the serial path. Every point's random seed derives from its own
``scale.seed``; nothing depends on pool scheduling, completion order, or
worker identity. The only thing parallelism changes is wall-clock time.

A worker that dies (segfault, OOM kill, ``os._exit``) breaks the pool:
every point not yet finished fails with an error naming
``BrokenProcessPool``. Under a strict policy that failure is raised;
under ``keep_going`` the points show as failed. Every finished point is
already in the result cache, so rerunning the same sweep computes only
the points the dead worker took down. Completions can be journaled to a
crash-safe :class:`~repro.parallel.journal.SweepJournal` (the points a
dead worker took down never are); ``resume=True`` skips journaled
points, so an interrupted sweep recomputes only what is missing.

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
import contextlib
import dataclasses
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro import errors as _errors
from repro.analysis import cache as result_cache
from repro.analysis.runner import (
    HarnessPolicy,
    RunFailure,
    active_policy,
    harness,
)
from repro.argtypes import parse_jobs
from repro.errors import ArtifactWriteError, ShutdownRequested
from repro.parallel.journal import SweepJournal
from repro.parallel.points import SweepPoint, dedupe_points
from repro.parallel.profiling import RunProfile, SweepSummary, summarize
from repro.sim.results import RunResult
from repro.sim.stats import SimStats
from repro.telemetry import merge_worker_traces, sinks


def resolve_jobs(jobs: "int | None" = None) -> int:
    """Resolve the worker count: explicit > ``REPRO_JOBS`` > cpu count.

    A ``REPRO_JOBS`` that is not an integer >= 1 is ignored with a
    warning on stderr (the command-line interfaces refuse it instead).
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


def _repro_env() -> "dict[str, str]":
    """The ``REPRO_*`` environment to re-apply in pool workers."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def run_tasks(fn, payloads: "list", jobs: "int | None" = None) -> "list":
    """Order-preserving process-pool map for independent tasks.

    A generic sibling of :func:`run_sweep` for work that is not a
    (app, scheme, scale) sweep point — e.g. the conformance fuzzer's
    seeded runs. ``fn`` must be a top-level (picklable-by-reference)
    callable; ``payloads`` and results must pickle. ``jobs <= 1`` (or a
    single payload) runs inline with identical semantics; the result
    list is aligned with ``payloads`` regardless of completion order.
    Tasks that trace write per-worker part files in the pool; the
    caller merges them (:func:`repro.telemetry.merge_worker_traces`).
    """
    jobs = min(resolve_jobs(jobs), max(1, len(payloads)))
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    with ProcessPoolExecutor(
        max_workers=jobs,
        # Same initializer as run_sweep: without it, spawn/forkserver
        # children would run with a default environment and silently
        # ignore the parent's REPRO_* settings (scale, cache, faults).
        initializer=_init_worker,
        initargs=(_repro_env(),),
    ) as pool:
        return list(pool.map(fn, payloads))


@dataclass
class SweepReport:
    """Everything one :func:`run_sweep` call produced."""

    #: The deduplicated points, in submission order.
    points: "list[SweepPoint]"
    #: One result per point, aligned with :attr:`points`.
    results: "list[RunResult]"
    #: One profile per point, aligned with :attr:`points`.
    profiles: "list[RunProfile]"
    #: Failures collected across workers: one per failed result, in
    #: submission order.
    failures: "list[RunFailure]" = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    #: Points satisfied from the sweep journal under ``resume=True``.
    resumed_points: int = 0
    #: Why the sweep journal was disabled mid-sweep (a failed append,
    #: typically a full disk); empty when it never was.
    journal_disabled: str = ""

    def summary(self) -> SweepSummary:
        return summarize(
            self.profiles, self.jobs, self.wall_s, self.journal_disabled
        )

    def serve(self):
        """A scope in which :func:`~repro.analysis.cache.cached_run`
        answers each swept point from this report.

        A render pass inside it takes every point from memory, so it
        works with the result cache off. A failed point appends a copy
        of its :class:`~repro.analysis.runner.RunFailure` to the active
        policy, as a serial recompute would, and returns the failed
        placeholder without running again. Points the sweep did not
        cover run as usual.
        """
        failures = iter(self.failures)
        served = {
            point.key(): (result,
                          next(failures) if result.meta.get("failed") else None)
            for point, result in zip(self.points, self.results)
        }

        def answer(app, scheme, scale) -> "RunResult | None":
            result, failure = served.get(
                result_cache.point_key(app, scheme, scale), (None, None)
            )
            if failure is not None:
                active_policy().failures.append(dataclasses.replace(failure))
            return result

        return result_cache.answering(answer)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _init_worker(env: "dict[str, str]") -> None:
    """Pool initializer: re-apply the parent's ``REPRO_*`` environment,
    mark the process as a pool worker and restore the default SIGTERM
    action.

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
    sinks.IN_POOL_WORKER = True
    # A forked worker inherits graceful_scope's SIGTERM handler, which
    # turns the pool's terminate() into an exception the worker reports
    # before it takes the next point. The default action stops it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _execute_point(index: int, point: SweepPoint, policy: HarnessPolicy,
                   profile_dir: "str | None"):
    """Run one point under ``policy``; return (result, profile)."""
    profiler = None
    if profile_dir is not None and not point.is_cached():
        import cProfile

        profiler = cProfile.Profile()
    stats_path = None
    start = time.perf_counter()
    with harness(policy), profiler or contextlib.nullcontext():
        result = result_cache.cached_run(point.app, point.scheme, point.scale)
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


def _run_point(index: int, point: SweepPoint, policy: HarnessPolicy,
               profile_dir: "str | None"):
    """Top-level pool task (must be picklable by reference).

    ``policy`` is the parent's, under ``keep_going`` so that failures
    travel back as data, never tracebacks, with an empty failure list.
    """
    result, profile = _execute_point(index, point, policy, profile_dir)
    return result, profile, policy.failures


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
# Parent side
# ----------------------------------------------------------------------

def _failed_result(point: SweepPoint, error: str) -> RunResult:
    """Keep-going placeholder, same shape as run_app_guarded's."""
    return RunResult(
        app=point.app,
        scheme=point.scheme_name,
        stats=SimStats(),
        meta={"failed": True, "error": error},
    )


def _failed_profile(point: SweepPoint, index: int) -> RunProfile:
    """Profile stand-in for a failed point that never produced one (lost
    to a dead worker, or replayed from the journal)."""
    return RunProfile(
        app=point.app,
        scheme=point.scheme_name,
        index=index,
        wall_s=0.0,
        accesses_per_s=0.0,
        cache_hit=False,
        failed=True,
        worker=os.getpid(),
    )


def _kill_pool(pool) -> None:
    """Tear a pool down without waiting on its workers."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def run_sweep(
    points: "list[SweepPoint]",
    jobs: "int | None" = None,
    policy: "HarnessPolicy | None" = None,
    profile_dir: "str | None" = None,
    journal: "SweepJournal | None" = None,
    resume: bool = False,
) -> SweepReport:
    """Execute ``points`` over a worker pool, through the result cache.

    Args:
        points: the sweep; duplicates (same cache key) run once.
        jobs: worker processes (default: ``REPRO_JOBS`` or cpu count);
            clamped to the number of unique points. ``jobs <= 1`` runs
            inline in this process with identical semantics.
        policy: harness policy applied per worker (timeout, retries,
            keep-going, audit, trace); defaults to the active policy.
        profile_dir: when given, each computed point runs under cProfile
            and dumps its stats there (the ``--profile`` machinery).
        journal: when given, every completed point is appended to this
            crash-safe checkpoint. Without ``resume`` the journal is
            reset first (a fresh sweep).
        resume: skip points the journal already records — ``ok`` points
            load straight from the result cache, ``failed`` points
            replay their recorded failure — and compute only the rest.

    Under a ``keep_going`` policy, failures end up in the report's
    ``failures``; the parent policy's own ``failures`` list is *not*
    extended here, so a render pass under :meth:`SweepReport.serve`
    reports each failure exactly as the serial path would. Under a
    strict policy the first failure (submission order) is re-raised
    after the sweep drains.

    A worker that dies breaks the pool, and every point it took down
    (each point not finished by then) fails with an error naming
    ``BrokenProcessPool``. Those points are not journaled, so the next
    run of the same sweep, with or without ``resume``, computes them,
    while every finished point loads from the result cache.

    The returned report's ``results`` are bit-identical to what the same
    points produce serially (see the module docstring).
    """
    points = dedupe_points(points)
    policy = policy if policy is not None else active_policy()
    jobs = min(resolve_jobs(jobs), max(1, len(points)))
    results: "list[RunResult | None]" = [None] * len(points)
    profiles: "list[RunProfile | None]" = [None] * len(points)
    indexed_failures: "list[tuple[int, RunFailure]]" = []
    start = time.perf_counter()
    resumed_points = 0
    journal_disabled = ""

    journaled: "dict[str, dict]" = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
        else:
            journal.reset()

    def settle(index, result, profile, point_failures) -> None:
        """Record one point's outcome in the report."""
        results[index] = result
        profiles[index] = profile
        indexed_failures.extend((index, f) for f in point_failures)

    def finish_point(index, point, result, profile, point_failures) -> None:
        """Record a newly computed point (and journal its completion)."""
        nonlocal journal, journal_disabled
        settle(index, result, profile, point_failures)
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
            settle(index, _failed_result(point, failure.error),
                   _failed_profile(point, index), [failure])
            resumed_points += 1
        elif record is not None and record["status"] == "ok" and point.is_cached():
            # Journaled complete: a parent-side cache load, no worker.
            seen = len(policy.failures)
            result, profile = _execute_point(index, point, policy, None)
            settle(index, result, profile, policy.failures[seen:])
            del policy.failures[seen:]
            resumed_points += 1
        else:
            pending.append((index, point))

    if jobs <= 1 or len(pending) <= 1:
        for index, point in pending:
            seen = len(policy.failures)
            result, profile = _execute_point(index, point, policy,
                                             profile_dir)
            # Hand new failures to the report; the render pass owns
            # appending them to the policy (parity with the pool).
            point_failures = list(policy.failures[seen:])
            del policy.failures[seen:]
            finish_point(index, point, result, profile, point_failures)
    else:
        worker_policy = dataclasses.replace(policy, keep_going=True,
                                            failures=[])
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(_repro_env(),),
        ) as pool:
            try:
                futures = {
                    pool.submit(_run_point, index, point, worker_policy,
                                profile_dir): (index, point)
                    for index, point in pending
                }
                for future in as_completed(futures):
                    index, point = futures[future]
                    try:
                        result, profile, point_failures = future.result()
                    except Exception as exc:
                        # A dead worker's BrokenProcessPool (or a result
                        # that would not unpickle): the point failed but
                        # stays out of the journal, so the next run
                        # computes it.
                        failure = RunFailure(
                            app=point.app,
                            scheme=point.scheme_name,
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=1,
                        )
                        settle(index, _failed_result(point, failure.error),
                               _failed_profile(point, index), [failure])
                    else:
                        finish_point(index, point, result, profile,
                                     point_failures)
            except (KeyboardInterrupt, ShutdownRequested):
                # Operator interrupt: every finished point is already
                # journaled (each append is fsynced), so kill the pool
                # without waiting on in-flight work and let the interrupt
                # propagate — the CLI layer prints the --resume hint.
                _kill_pool(pool)
                raise

    if policy.trace_out:
        merge_worker_traces(policy.trace_out)

    # Failure reporting stays deterministic (submission order) no matter
    # which worker finished or died first.
    indexed_failures.sort(key=lambda item: item[0])
    failures = [failure for _, failure in indexed_failures]
    if failures and not policy.keep_going:
        raise _rebuild_error(failures[0])

    return SweepReport(
        points=points,
        results=results,
        profiles=profiles,
        failures=failures,
        wall_s=time.perf_counter() - start,
        jobs=jobs,
        resumed_points=resumed_points,
        journal_disabled=journal_disabled,
    )
