"""Tests for the parallel sweep executor (``repro.parallel``).

The acceptance bar (ISSUE 2): a 2-worker sweep over >= 3 (app, scheme)
points yields bit-identical stats to the serial path; concurrent cache
writes neither corrupt entries nor recompute points; and the harness
semantics — timeout, retry, keep-going — hold inside pool workers,
where SIGALRM-based timeouts would be inert.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.analysis import cache as result_cache
from repro.analysis.cache import cached_run, clear_failed_marks
from repro.analysis.runner import (
    HarnessPolicy,
    RunScale,
    harness,
    run_app,
)
from repro.errors import RunTimeoutError
from repro.parallel import (
    SweepPoint,
    collect_points,
    dedupe_points,
    pending_points,
    resolve_jobs,
    run_sweep,
)
from repro.sim.config import InLLCSpec, SparseSpec, TinySpec

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)


def _points(scale=SCALE):
    """Three small, scheme-diverse sweep points."""
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
    clear_failed_marks()
    yield
    clear_failed_marks()


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_invalid_env_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs() >= 1
        assert "ignoring invalid REPRO_JOBS='lots'" in capsys.readouterr().err

    def test_clamped_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestPlanner:
    def test_collects_grid_without_running(self, tmp_path):
        from repro.analysis import experiments

        points = collect_points(
            experiments.tiny_directory_performance, 1 / 256, SCALE,
            apps=["barnes"],
        )
        # One 2x baseline plus the three tiny policies.
        assert len(points) == 4
        assert {p.scheme_name for p in points} == {"sparse", "tiny"}
        assert all(p.app == "barnes" for p in points)
        # Planning must not simulate or touch the cache directory.
        assert not (tmp_path / "cache").exists()

    def test_derived_figure_plans_despite_placeholder_math(self):
        from repro.analysis import experiments

        # Fig. 21 divides aggregate totals; placeholders may break the
        # division but every point must still be harvested.
        points = collect_points(experiments.fig21_energy, SCALE,
                                apps=["barnes"])
        assert len(points) == 8  # six sparse sizes + two tiny sizes

    def test_pending_points_filters_cached(self):
        point = _points()[0]
        assert pending_points([point]) == [point]
        cached_run(point.app, point.scheme, point.scale)
        assert pending_points([point]) == []

    def test_dedupe_preserves_first_seen_order(self):
        points = _points()
        assert dedupe_points(points + points[::-1]) == points


class TestParallelSerialEquivalence:
    def test_two_workers_bit_identical_to_serial(self, tmp_path, monkeypatch):
        points = _points()
        assert len(points) >= 3

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        report = run_sweep(points, jobs=2)
        assert all(not p.cache_hit for p in report.profiles)

        serial = [run_app(p.app, p.scheme, p.scale) for p in points]
        for computed, reference in zip(report.results, serial):
            assert computed.stats.dump() == reference.stats.dump()

    def test_serial_inline_path_matches_too(self, tmp_path, monkeypatch):
        points = _points()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = run_sweep(points, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = run_sweep(points, jobs=2)
        for left, right in zip(first.results, second.results):
            assert left.stats.dump() == right.stats.dump()
        # The published cache entries are byte-comparable as well.
        entries_a = {p.name: p.read_bytes()
                     for p in (tmp_path / "a").glob("*.json")}
        entries_b = {p.name: p.read_bytes()
                     for p in (tmp_path / "b").glob("*.json")}
        assert entries_a == entries_b
        assert len(entries_a) == len(points)


class TestCacheUnderConcurrency:
    def test_duplicate_points_compute_once(self):
        points = _points()
        report = run_sweep(points + list(points), jobs=2)
        assert len(report.points) == len(points)
        assert sum(1 for p in report.profiles if not p.cache_hit) == len(points)

    def test_second_sweep_is_all_cache_hits(self):
        points = _points()
        run_sweep(points, jobs=2)
        again = run_sweep(points, jobs=2)
        assert all(p.cache_hit for p in again.profiles)
        assert all(r.meta.get("cached") for r in again.results)

    def test_racing_writers_never_corrupt_an_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "race"))
        point = _points()[0]
        result = run_app(point.app, point.scheme, point.scale)
        path = result_cache.cache_dir() / f"{point.key()}.json"

        errors = []

        def writer():
            try:
                for _ in range(30):
                    result_cache._store_entry(path, result)
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        def reader():
            try:
                for _ in range(60):
                    loaded = result_cache._load_entry(path)
                    if loaded is not None:
                        assert loaded.stats.dump() == result.stats.dump()
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Atomic publication: the entry is whole and never quarantined.
        assert json.loads(path.read_text())
        assert not list(path.parent.glob("*.bad"))


class TestHarnessSemanticsInWorkers:
    def test_timeout_and_retry_in_pool(self):
        huge = RunScale(num_cores=8, total_accesses=2_000_000)
        points = [
            SweepPoint("barnes", SparseSpec(ratio=2.0), huge),
            SweepPoint("ocean_cp", SparseSpec(ratio=2.0), huge),
        ]
        policy = HarnessPolicy(keep_going=True, timeout_s=0.2, max_retries=1)
        start = time.monotonic()
        report = run_sweep(points, jobs=2, policy=policy)
        assert time.monotonic() - start < 120
        assert len(report.failures) == 2
        for failure in report.failures:
            assert "RunTimeoutError" in failure.error
            assert failure.attempts == 2  # the retry also ran and timed out
        assert all(r.meta.get("failed") for r in report.results)

    def test_keep_going_healthy_points_complete(self, monkeypatch):
        from repro.analysis import runner

        real_run_app = runner.run_app

        def flaky(app, scheme, scale=None, config=None):
            if app == "barnes":
                raise RuntimeError("synthetic failure")
            return real_run_app(app, scheme, scale, config)

        # Pool workers fork after the patch, so they inherit it.
        monkeypatch.setattr("repro.analysis.runner.run_app", flaky)
        points = _points()[:2]  # barnes (fails) + ocean_cp (healthy)
        policy = HarnessPolicy(keep_going=True)
        report = run_sweep(points, jobs=2, policy=policy)
        [failure] = report.failures
        assert failure.app == "barnes"
        assert "synthetic failure" in failure.error
        assert report.results[0].meta.get("failed")
        # The healthy point still completed and was cached.
        assert not report.results[1].meta.get("failed")
        assert pending_points([points[1]]) == []

    def test_worker_failure_reraised_without_keep_going(self):
        huge = RunScale(num_cores=8, total_accesses=2_000_000)
        points = [
            SweepPoint("barnes", SparseSpec(ratio=2.0), huge),
            SweepPoint("ocean_cp", SparseSpec(ratio=2.0), huge),
        ]
        with pytest.raises(RunTimeoutError):
            run_sweep(points, jobs=2, policy=HarnessPolicy(timeout_s=0.2))

    def test_failed_points_replay_without_recompute(self, monkeypatch):
        def boom(app, scheme, scale=None, config=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        points = _points()[:2]
        policy = HarnessPolicy(keep_going=True)
        report = run_sweep(points, jobs=2, policy=policy)
        assert len(report.failures) == 2
        # run_sweep leaves the parent policy untouched; the render pass
        # owns failure accounting via the replay registry.
        assert not policy.failures
        # The failed runs were never cached...
        assert pending_points(points) == points

        def forbidden(app, scheme, scale=None, config=None):
            raise AssertionError("marked point must not recompute")

        monkeypatch.setattr("repro.analysis.runner.run_app", forbidden)
        # ...and a keep-going render pass replays the recorded failure
        # instead of recomputing the doomed run.
        point = points[0]
        with harness(HarnessPolicy(keep_going=True)) as render_policy:
            replayed = cached_run(point.app, point.scheme, point.scale)
        assert replayed.meta.get("failed")
        [failure] = render_policy.failures
        assert "synthetic failure" in failure.error


class TestProfiles:
    def test_profiles_and_summary(self, tmp_path):
        points = _points()
        report = run_sweep(points, jobs=2,
                           profile_dir=str(tmp_path / "profiles"))
        summary = report.summary()
        assert summary.points == len(points)
        assert summary.computed == len(points)
        assert summary.cache_hits == 0
        assert summary.wall_s > 0
        assert summary.slowest is not None
        assert summary.slowest.accesses_per_s > 0
        assert all(p.worker for p in report.profiles)
        rendered = summary.render()
        assert "jobs=2" in rendered and "slowest:" in rendered
        # Every computed point dumped cProfile stats.
        assert all(p.stats_path for p in report.profiles)
        assert len(list((tmp_path / "profiles").glob("*.prof"))) == len(points)

    def test_print_slowest_profile(self, tmp_path, capsys):
        from repro.parallel import print_slowest_profile

        report = run_sweep(_points()[:2], jobs=2,
                           profile_dir=str(tmp_path / "profiles"))
        slowest = print_slowest_profile(report.profiles)
        out = capsys.readouterr().out
        assert slowest is not None
        assert "cProfile of slowest point" in out
        assert "cumulative" in out

    def test_cache_hits_are_not_profiled(self, tmp_path):
        points = _points()[:2]
        run_sweep(points, jobs=2)
        report = run_sweep(points, jobs=2,
                           profile_dir=str(tmp_path / "profiles"))
        assert all(p.cache_hit for p in report.profiles)
        assert all(p.stats_path is None for p in report.profiles)
        assert all(p.accesses_per_s == 0.0 for p in report.profiles)


class TestCliIntegration:
    def test_jobs_flag_parallel_matches_serial(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        argv = ["fig07", "--scale", "quick", "--apps", "compress"]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        assert main(argv + ["--jobs", "1"]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        assert main(argv + ["--jobs", "2"]) == 0
        serial = {p.name: json.loads(p.read_text())
                  for p in (tmp_path / "serial").glob("*.json")}
        parallel = {p.name: json.loads(p.read_text())
                    for p in (tmp_path / "parallel").glob("*.json")}
        assert serial == parallel
        assert serial  # at least the in-LLC point ran

    def test_profile_flag_prints_summary(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep:" in captured.err
        assert "cProfile of slowest point" in captured.out
        assert "Fig. 7" in captured.out
