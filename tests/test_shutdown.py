"""Tests for graceful shutdown (``repro.parallel.shutdown``).

SIGINT/SIGTERM become a structured ``ShutdownRequested`` that keep-going
never swallows; an interrupted sweep keeps its completed points in the
journal, ``--resume`` recomputes only the rest, and the CLI exits with
the distinct code 75 and a ``--resume`` hint.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.analysis import cache as result_cache
from repro.analysis.runner import HarnessPolicy, RunScale, run_app_guarded
from repro.errors import ShutdownRequested
from repro.parallel import SweepJournal, SweepPoint, run_sweep
from repro.parallel.shutdown import (
    EXIT_INTERRUPTED,
    graceful_scope,
    resume_hint,
)
from repro.sim.config import InLLCSpec, SparseSpec, TinySpec

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)

SPEC = TinySpec(ratio=1 / 64, policy="gnru", spill_window=SCALE.spill_window)


def _points(scale=SCALE):
    """Three small, scheme-diverse sweep points."""
    return [
        SweepPoint("barnes", SparseSpec(ratio=2.0), scale),
        SweepPoint("ocean_cp", InLLCSpec(), scale),
        SweepPoint("barnes", SPEC, scale),
    ]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """An isolated cache dir and the cache on."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.delenv("REPRO_JOBS", raising=False)


class TestShutdown:
    def test_sigint_becomes_shutdown_requested(self):
        with pytest.raises(ShutdownRequested) as excinfo:
            with graceful_scope():
                os.kill(os.getpid(), signal.SIGINT)
                for _ in range(10_000):  # let the signal land
                    pass
        assert excinfo.value.signum == signal.SIGINT

    def test_handlers_restored_after_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_scope():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_keep_going_never_swallows_shutdown(self, monkeypatch):
        def interrupted_run(*args, **kwargs):
            raise ShutdownRequested(signal.SIGTERM)

        monkeypatch.setattr("repro.analysis.runner.run_app", interrupted_run)
        with pytest.raises(ShutdownRequested):
            run_app_guarded(
                "barnes", SPEC, SCALE, policy=HarnessPolicy(keep_going=True)
            )

    def test_interrupted_sweep_flushes_journal_and_resumes(
        self, tmp_path, monkeypatch
    ):
        points = _points()
        journal = SweepJournal(result_cache.cache_dir() / "sweep.journal")
        real_cached_run = result_cache.cached_run
        calls = {"n": 0}

        def interrupt_on_second(app, scheme, scale):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ShutdownRequested(signal.SIGINT)
            return real_cached_run(app, scheme, scale)

        monkeypatch.setattr(result_cache, "cached_run", interrupt_on_second)
        with pytest.raises(ShutdownRequested):
            run_sweep(points, jobs=1, journal=journal)
        # The completed first point survived the interrupt in the journal.
        records = journal.load()
        assert records[points[0].key()]["status"] == "ok"
        assert points[1].key() not in records

        # Resume recomputes only the non-journaled points.
        monkeypatch.setattr(result_cache, "cached_run", real_cached_run)
        report = run_sweep(points, jobs=1, journal=journal, resume=True)
        assert report.resumed_points == 1
        assert all(r is not None for r in report.results)

        # ... and the resumed sweep is bit-identical to a fresh one.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh-cache"))
        baseline = run_sweep(points, jobs=1)
        assert [r.stats.dump() for r in report.results] == [
            r.stats.dump() for r in baseline.results
        ]

    def test_resume_hint_names_the_flag(self, tmp_path):
        hint = resume_hint(tmp_path / "sweep.journal", ["fig13", "--jobs", "2"])
        assert "python -m repro fig13 --jobs 2 --resume" in hint
        assert str(tmp_path / "sweep.journal") in hint

    def test_exit_code_is_distinct(self):
        assert EXIT_INTERRUPTED == 75

    def test_cli_exits_interrupted_with_hint(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def interrupted_figure(scale, **kwargs):
            raise ShutdownRequested(signal.SIGTERM)

        monkeypatch.setitem(cli.FIGURES, "fig01", (interrupted_figure, ()))
        code = cli.main(["fig01", "--jobs", "1"])
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "shutdown requested" in err
        assert "--resume" in err
