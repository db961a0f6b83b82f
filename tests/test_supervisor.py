"""Supervised sweep executor tests: crashes, hangs, journal, resume.

The acceptance bar (ISSUE 6): killing a sweep worker no longer aborts
the sweep — the pool is respawned (bounded, with backoff) and crashed
points are retried; a poison point that keeps killing its worker is
isolated and blamed as a ``WorkerCrashError`` while healthy points'
results survive; per-point completion is journaled crash-safely and
``resume=True`` recomputes only the non-journaled points.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.analysis.cache import clear_failed_marks, point_key
from repro.analysis.runner import HarnessPolicy, RunScale
from repro.parallel import (
    SupervisorPolicy,
    SweepJournal,
    SweepPoint,
    run_sweep,
    run_tasks,
    supervisor_from_env,
)
from repro.parallel.executor import _rebuild_error
from repro.analysis.runner import RunFailure
from repro.sim.config import InLLCSpec, SparseSpec, TinySpec

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)

#: Fast supervision bounds so crash tests do not sleep for real.
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, jitter_s=0.0)


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
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    clear_failed_marks()
    yield
    clear_failed_marks()


def _kill_once(tmp_path, monkeypatch, app="ocean_cp", code=42):
    """Patch run_app so ``app`` kills its worker process exactly once."""
    from repro.analysis import runner

    marker = tmp_path / "armed"
    marker.write_text("armed")
    real_run_app = runner.run_app

    def killer(app_arg, scheme, scale=None, config=None):
        name = app_arg if isinstance(app_arg, str) else app_arg.name
        if name == app and marker.exists():
            marker.unlink()
            os._exit(code)
        return real_run_app(app_arg, scheme, scale, config)

    # Pool workers fork after the patch, so they inherit it.
    monkeypatch.setattr("repro.analysis.runner.run_app", killer)
    return marker


def _kill_always(monkeypatch, app="ocean_cp", code=42):
    """Patch run_app so ``app`` kills its worker on every attempt."""
    from repro.analysis import runner

    real_run_app = runner.run_app

    def poison(app_arg, scheme, scale=None, config=None):
        name = app_arg if isinstance(app_arg, str) else app_arg.name
        if name == app:
            os._exit(code)
        return real_run_app(app_arg, scheme, scale, config)

    monkeypatch.setattr("repro.analysis.runner.run_app", poison)


class TestSupervisorPolicy:
    def test_validation(self):
        for seconds in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="heartbeat_s"):
                SupervisorPolicy(heartbeat_s=seconds)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_pool_respawns=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_point_retries=-1)

    def test_backoff_is_exponential_and_capped(self):
        import random

        policy = SupervisorPolicy(backoff_base_s=0.25, backoff_cap_s=2.0,
                                  jitter_s=0.0)
        rng = random.Random(1)
        delays = [policy.backoff_delay(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_jitter_bounded(self):
        import random

        policy = SupervisorPolicy(backoff_base_s=0.5, jitter_s=0.25)
        rng = random.Random(7)
        for _ in range(20):
            delay = policy.backoff_delay(1, rng)
            assert 0.5 <= delay <= 0.75

    def test_from_env_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        assert supervisor_from_env().heartbeat_s is None

    def test_from_env_seconds(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "2.5")
        assert supervisor_from_env().heartbeat_s == 2.5

    @pytest.mark.parametrize("value", ["soon", "-3", "0", "nan", "inf", "-inf"])
    def test_from_env_invalid_warns(self, monkeypatch, capsys, value):
        monkeypatch.setenv("REPRO_HEARTBEAT", value)
        assert supervisor_from_env().heartbeat_s is None
        if value != "0":  # "0" is an explicit off, not a mistake
            err = capsys.readouterr().err
            assert "REPRO_HEARTBEAT" in err and "DISABLED" in err


class TestWorkerCrash:
    def test_transient_crash_is_survived(self, tmp_path, monkeypatch):
        # Regression (pre-supervision): one worker os._exit mid-point
        # raised BrokenProcessPool in the parent and lost every point.
        marker = _kill_once(tmp_path, monkeypatch)
        report = run_sweep(
            _points(), jobs=2, policy=HarnessPolicy(keep_going=True),
            supervisor=SupervisorPolicy(max_pool_respawns=2,
                                        max_point_retries=1, **FAST),
        )
        assert not marker.exists()  # the kill really fired
        assert report.pool_respawns >= 1
        assert not report.failures
        assert all(not r.meta.get("failed") for r in report.results)
        assert not report.degraded_serial
        assert report.crashed_points == 0

    def test_poison_point_is_isolated_and_blamed(self, monkeypatch):
        _kill_always(monkeypatch)
        report = run_sweep(
            _points(), jobs=2, policy=HarnessPolicy(keep_going=True),
            supervisor=SupervisorPolicy(max_pool_respawns=1,
                                        max_point_retries=1, **FAST),
        )
        assert report.degraded_serial
        assert report.crashed_points == 1
        [failure] = report.failures
        assert failure.app == "ocean_cp"
        assert "WorkerCrashError" in failure.error
        assert failure.attempts == 2  # initial isolated try + one retry
        # Healthy points' results survived the poison point.
        healthy = [r for r in report.results if not r.meta.get("failed")]
        assert len(healthy) == 2
        for result in healthy:
            assert result.stats.dump()  # real simulated stats

    def test_poison_point_raises_under_strict_policy(self, monkeypatch):
        from repro.errors import WorkerCrashError

        _kill_always(monkeypatch)
        with pytest.raises(WorkerCrashError):
            run_sweep(
                _points()[:2], jobs=2, policy=HarnessPolicy(),
                supervisor=SupervisorPolicy(max_pool_respawns=0,
                                            max_point_retries=0, **FAST),
            )

    @pytest.mark.xfail(
        reason="the pre-supervision executor pattern loses every point "
        "when one worker dies; kept as a record of the failure mode the "
        "supervised run_sweep exists to prevent",
        raises=Exception,
        strict=True,
    )
    def test_unsupervised_pool_loses_the_sweep(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool  # noqa: F401
        from repro.parallel.executor import _init_worker, _run_point

        _kill_always(monkeypatch)
        points = _points()
        env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        with ProcessPoolExecutor(
            max_workers=2, initializer=_init_worker,
            initargs=(env, None, 0, None),
        ) as pool:
            futures = [pool.submit(_run_point, i, p)
                       for i, p in enumerate(points)]
            for future in futures:
                future.result()  # raises BrokenProcessPool

    def test_hung_worker_tripped_by_heartbeat(self, monkeypatch):
        from repro.analysis import runner

        real_run_app = runner.run_app

        def sleeper(app_arg, scheme, scale=None, config=None):
            name = app_arg if isinstance(app_arg, str) else app_arg.name
            if name == "ocean_cp":
                time.sleep(120)  # hangs far beyond the heartbeat
            return real_run_app(app_arg, scheme, scale, config)

        monkeypatch.setattr("repro.analysis.runner.run_app", sleeper)
        start = time.monotonic()
        report = run_sweep(
            _points(), jobs=2, policy=HarnessPolicy(keep_going=True),
            supervisor=SupervisorPolicy(heartbeat_s=2.0, max_pool_respawns=0,
                                        max_point_retries=0, **FAST),
        )
        assert time.monotonic() - start < 60
        assert report.degraded_serial
        assert report.crashed_points == 1
        [failure] = report.failures
        assert "WorkerCrashError" in failure.error
        assert "no progress" in failure.error
        assert len([r for r in report.results
                    if not r.meta.get("failed")]) == 2


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

        def counting(app_arg, scheme, scale=None, config=None):
            name = app_arg if isinstance(app_arg, str) else app_arg.name
            computed.append(name)
            return real_run_app(app_arg, scheme, scale, config)

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

        def forbidden(app_arg, scheme, scale=None, config=None):
            raise AssertionError("journaled-failed point must not recompute")

        real_run_app = runner.run_app

        def guarded(app_arg, scheme, scale=None, config=None):
            name = app_arg if isinstance(app_arg, str) else app_arg.name
            if name == points[0].app:
                return forbidden(app_arg, scheme, scale, config)
            return real_run_app(app_arg, scheme, scale, config)

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
        # The full crash story: sweep with a one-shot killer completes
        # under supervision and journals everything; a resumed re-run
        # recomputes nothing.
        _kill_once(tmp_path, monkeypatch)
        journal = SweepJournal(tmp_path / "sweep.journal")
        points = _points()
        report = run_sweep(
            points, jobs=2, policy=HarnessPolicy(keep_going=True),
            supervisor=SupervisorPolicy(max_pool_respawns=2,
                                        max_point_retries=1, **FAST),
            journal=journal,
        )
        assert report.pool_respawns >= 1
        assert len(journal.load()) == len(points)
        again = run_sweep(points, jobs=2, journal=journal, resume=True)
        assert again.resumed_points == len(points)
        for left, right in zip(report.results, again.results):
            assert left.stats.dump() == right.stats.dump()


class TestRunTasksInitializer:
    def test_workers_receive_harness_configuration(self):
        # Regression: run_tasks built its pool without the initializer,
        # so spawn/forkserver workers silently dropped REPRO_* settings.
        # _WORKER is only populated by the initializer (the parent's
        # copy stays empty), so seeing its keys proves the fix.
        keys = run_tasks(_probe_worker, [0, 1], jobs=2)
        assert keys == [["max_retries", "profile_dir", "timeout_s"]] * 2

    def test_inline_path_unchanged(self):
        assert run_tasks(_probe_worker, [0], jobs=2) == [[]]


def _probe_worker(_payload):
    from repro.parallel import executor

    return sorted(executor._WORKER.keys())


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
