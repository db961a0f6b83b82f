"""Sweep executor tests: a dead worker, the journal, resume.

A worker that dies mid-sweep breaks the pool. Every point it took down
(each point not finished by then) fails with an error naming
``BrokenProcessPool`` and stays out of the journal; every finished point
stays in the result cache. Under a strict policy the sweep raises. A
rerun of the same sweep, with or without ``resume``, computes only the
points the result cache lacks, and their statistics equal a clean
sweep's. Per-point completion is journaled crash-safely and
``resume=True`` recomputes only the non-journaled points.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.analysis.runner import HarnessPolicy, RunScale
from repro.parallel import (
    SweepJournal,
    SweepPoint,
    run_sweep,
    run_tasks,
)
from repro.parallel.executor import _rebuild_error
from repro.parallel.shutdown import graceful_scope
from repro.analysis.runner import RunFailure
from repro.sim.config import InLLCSpec, SparseSpec, TinySpec

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)


def _points(scale=SCALE):
    return [
        SweepPoint("barnes", SparseSpec(ratio=2.0), scale),
        SweepPoint("ocean_cp", InLLCSpec(), scale),
        SweepPoint("barnes", TinySpec(ratio=1 / 64, policy="gnru",
                                      spill_window=scale.spill_window), scale),
    ]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.delenv("REPRO_JOBS", raising=False)


def _kill_once(tmp_path, monkeypatch, app="ocean_cp", code=42, after=None):
    """Patch run_app so ``app`` kills its worker process exactly once;
    with ``after``, not before ``after()`` holds (or a minute passed)."""
    from repro.analysis import runner

    marker = tmp_path / "armed"
    marker.write_text("armed")
    real_run_app = runner.run_app

    def killer(app_arg, scheme, scale=None, config=None, **observers):
        name = app_arg if isinstance(app_arg, str) else app_arg.name
        if name == app and marker.exists():
            deadline = time.monotonic() + 60
            while after is not None and not after() and time.monotonic() < deadline:
                time.sleep(0.01)
            marker.unlink()
            os._exit(code)
        return real_run_app(app_arg, scheme, scale, config, **observers)

    # Pool workers fork after the patch, so they inherit it.
    monkeypatch.setattr("repro.analysis.runner.run_app", killer)
    return marker


def _kill_always(monkeypatch, app="ocean_cp", code=42):
    """Patch run_app so ``app`` kills its worker on every attempt."""
    from repro.analysis import runner

    real_run_app = runner.run_app

    def poison(app_arg, scheme, scale=None, config=None, **observers):
        name = app_arg if isinstance(app_arg, str) else app_arg.name
        if name == app:
            os._exit(code)
        return real_run_app(app_arg, scheme, scale, config, **observers)

    monkeypatch.setattr("repro.analysis.runner.run_app", poison)


def _killed_sweep(tmp_path, monkeypatch):
    """A journaled keep-going sweep in which ocean_cp's worker dies once,
    after the first point finished (its journal record is written)."""
    journal = SweepJournal(tmp_path / "sweep.journal")
    points = _points()
    first = points[0].key()
    marker = _kill_once(tmp_path, monkeypatch,
                        after=lambda: first in journal.load())
    report = run_sweep(points, jobs=2, policy=HarnessPolicy(keep_going=True),
                       journal=journal)
    assert not marker.exists()  # the kill really fired
    return points, report, journal


def _failed(report) -> "list[SweepPoint]":
    return [point for point, result in zip(report.points, report.results)
            if result.meta.get("failed")]


class TestWorkerCrash:
    def test_finished_points_stay_cached(self, tmp_path, monkeypatch):
        points, report, journal = _killed_sweep(tmp_path, monkeypatch)
        assert not report.results[0].meta.get("failed")
        records = journal.load()
        for point, result in zip(report.points, report.results):
            if not result.meta.get("failed"):
                assert point.is_cached()
                assert records[point.key()]["status"] == "ok"
                assert result.stats.dump()  # real simulated stats

    def test_lost_points_fail_with_broken_pool_unjournaled(
        self, tmp_path, monkeypatch
    ):
        points, report, journal = _killed_sweep(tmp_path, monkeypatch)
        failed = _failed(report)
        assert points[1] in failed  # the point whose worker died
        assert len(report.failures) == len(failed)
        for failure in report.failures:
            assert "BrokenProcessPool" in failure.error
        records = journal.load()
        for point in failed:
            assert point.key() not in records

    def test_poison_point_raises_under_strict_policy(self, monkeypatch):
        _kill_always(monkeypatch)
        with pytest.raises(RuntimeError, match="BrokenProcessPool"):
            run_sweep(_points()[:2], jobs=2, policy=HarnessPolicy())


class TestJournal:
    def test_records_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        journal.record_ok("abc")
        journal.record_failed("def", "barnes", "tiny", "KaboomError: x", 2)
        records = journal.load()
        assert records["abc"] == {"key": "abc", "status": "ok"}
        assert records["def"]["error"] == "KaboomError: x"
        assert records["def"]["attempts"] == 2

    def test_torn_trailing_line_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        journal.record_ok("abc")
        with open(journal.path, "a") as handle:
            handle.write('{"key": "def", "sta')  # killed mid-write
        records = journal.load()
        assert set(records) == {"abc"}

    def test_reset_and_missing_file(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        assert journal.load() == {}
        journal.reset()  # no file: a no-op
        journal.record_ok("abc")
        journal.reset()
        assert journal.load() == {}

    def test_default_lives_next_to_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert SweepJournal.default().path == tmp_path / "c" / "sweep.journal"

    def test_run_sweep_journals_every_point(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        points = _points()
        run_sweep(points, jobs=1, journal=journal)
        records = journal.load()
        assert len(records) == len(points)
        for point in points:
            assert records[point.key()]["status"] == "ok"
        # Every line is whole JSON (fsync'd append, never torn).
        for line in journal.path.read_text().splitlines():
            assert json.loads(line)

    def test_fresh_sweep_resets_journal(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        journal.record_ok("stale-key")
        run_sweep(_points()[:1], jobs=1, journal=journal)
        assert "stale-key" not in journal.load()


class TestResume:
    def test_resume_skips_journaled_points(self, tmp_path, monkeypatch):
        from repro.analysis import runner

        journal = SweepJournal(tmp_path / "sweep.journal")
        points = _points()
        # Interrupted sweep: the first two points completed and were
        # journaled; the third never ran.
        run_sweep(points[:2], jobs=1, journal=journal)
        journal_before = journal.path.read_text()

        computed = []
        real_run_app = runner.run_app

        def counting(app_arg, scheme, scale=None, config=None, **observers):
            name = app_arg if isinstance(app_arg, str) else app_arg.name
            computed.append(name)
            return real_run_app(app_arg, scheme, scale, config, **observers)

        monkeypatch.setattr("repro.analysis.runner.run_app", counting)
        report = run_sweep(points, jobs=1, journal=journal, resume=True)
        assert report.resumed_points == 2
        assert computed == ["barnes"]  # only the tiny point recomputed
        assert all(not r.meta.get("failed") for r in report.results)
        # Resumed points loaded from cache; the journal grew by one.
        assert journal.path.read_text().startswith(journal_before)
        assert len(journal.load()) == 3

    def test_resume_replays_journaled_failure(self, tmp_path, monkeypatch):
        from repro.analysis import runner

        journal = SweepJournal(tmp_path / "sweep.journal")
        points = _points()[:2]
        journal.record_failed(points[0].key(), points[0].app,
                              points[0].scheme_name,
                              "RunTimeoutError: run exceeded 600s", 2)

        def forbidden(app_arg, scheme, scale=None, config=None, **observers):
            raise AssertionError("journaled-failed point must not recompute")

        real_run_app = runner.run_app

        def guarded(app_arg, scheme, scale=None, config=None, **observers):
            name = app_arg if isinstance(app_arg, str) else app_arg.name
            if name == points[0].app:
                return forbidden(app_arg, scheme, scale, config, **observers)
            return real_run_app(app_arg, scheme, scale, config, **observers)

        monkeypatch.setattr("repro.analysis.runner.run_app", guarded)
        report = run_sweep(points, jobs=1,
                           policy=HarnessPolicy(keep_going=True),
                           journal=journal, resume=True)
        assert report.resumed_points == 1
        [failure] = report.failures
        assert failure.app == points[0].app
        assert "RunTimeoutError" in failure.error
        assert failure.attempts == 2
        assert report.results[0].meta.get("failed")
        assert not report.results[1].meta.get("failed")

    def test_resume_with_missing_cache_entry_recomputes(self, tmp_path):
        # A journaled-ok point whose cache entry vanished (cache pruned)
        # must recompute rather than return nothing.
        journal = SweepJournal(tmp_path / "sweep.journal")
        [point] = _points()[:1]
        journal.record_ok(point.key())
        report = run_sweep([point], jobs=1, journal=journal, resume=True)
        assert report.resumed_points == 0
        assert not report.results[0].meta.get("failed")

    def test_resume_after_worker_kill_end_to_end(self, tmp_path, monkeypatch):
        # The full crash story: a worker dies once and takes some points
        # down; a resumed rerun computes exactly the points the result
        # cache lacks (all of them lost to the dead worker), and every
        # point ends up with the statistics of a clean sweep.
        _rerun_after_worker_kill(tmp_path, monkeypatch, resume=True)

    def test_fresh_rerun_after_worker_kill(self, tmp_path, monkeypatch):
        # Without resume the journal starts over, but the finished
        # points still load from the result cache.
        _rerun_after_worker_kill(tmp_path, monkeypatch, resume=False)


def _rerun_after_worker_kill(tmp_path, monkeypatch, resume: bool) -> None:
    points, report, journal = _killed_sweep(tmp_path, monkeypatch)
    missing = [point for point in points if not point.is_cached()]
    assert points[1] in missing
    assert set(missing) <= set(_failed(report))
    again = run_sweep(points, jobs=2, policy=HarnessPolicy(keep_going=True),
                      journal=journal, resume=resume)
    assert not again.failures
    computed = [point for point, profile in zip(again.points, again.profiles)
                if not profile.cache_hit]
    assert computed == missing
    assert len(journal.load()) == len(points)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
    clean = run_sweep(points, jobs=1)
    assert [r.stats.dump() for r in again.results] == [
        r.stats.dump() for r in clean.results
    ]


class TestRunTasksInitializer:
    def test_workers_receive_harness_configuration(self):
        # Regression: run_tasks built its pool without the initializer,
        # so spawn/forkserver workers silently dropped REPRO_* settings.
        # Only the initializer marks a process as a pool worker (the
        # parent never is one), so seeing the mark in every worker
        # proves the fix.
        assert run_tasks(_probe_worker, [0, 1], jobs=2) == [True, True]

    def test_inline_path_unchanged(self):
        assert run_tasks(_probe_worker, [0], jobs=2) == [False]

    def test_workers_die_on_terminate(self):
        # Regression: a worker forked inside graceful_scope inherited its
        # SIGTERM handler, so after another worker died, terminating the
        # broken pool let it report the signal and compute the next
        # queued point, which the sweep had already reported as lost.
        with graceful_scope():
            assert run_tasks(_sigterm_is_default, [0, 1], jobs=2) == [True, True]


def _probe_worker(_payload):
    from repro.telemetry import sinks

    return sinks.IN_POOL_WORKER


def _sigterm_is_default(_payload):
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestRebuildError:
    def test_typed_failure_with_message(self):
        err = _rebuild_error(RunFailure("a", "s", "KeyError: 'scheme'", 1))
        assert isinstance(err, KeyError)
        assert "'scheme'" in str(err)

    def test_repro_error_namespace(self):
        from repro.errors import RunTimeoutError

        err = _rebuild_error(
            RunFailure("a", "s", "RunTimeoutError: exceeded 600s", 1)
        )
        assert isinstance(err, RunTimeoutError)

    def test_bare_typed_failure_reconstructs(self):
        # Regression: "KeyError" with no ": " separator collapsed to
        # RuntimeError because the message split left an empty name.
        err = _rebuild_error(RunFailure("a", "s", "KeyError", 1))
        assert isinstance(err, KeyError)

    def test_unknown_type_falls_back_to_runtime_error(self):
        failure = RunFailure("a", "s", "NoSuchError: boom", 1)
        err = _rebuild_error(failure)
        assert isinstance(err, RuntimeError)
        assert "NoSuchError: boom" in str(err)

    def test_non_exception_name_falls_back(self):
        # "int: 3" names a type, but not an exception type.
        err = _rebuild_error(RunFailure("a", "s", "int: 3", 1))
        assert isinstance(err, RuntimeError)
