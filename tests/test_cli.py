"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import FIGURES, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig22" in out

    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 2

    def test_unknown_figure_rejected(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_every_bench_figure_has_cli_entry(self):
        for i in range(1, 23):
            assert f"fig{i:02d}" in FIGURES

    def test_runs_one_figure(self, capsys):
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "compress" in out

    def test_zcache_variant(self, capsys):
        code = main(["fig03z", "--scale", "quick", "--apps", "compress"])
        assert code == 0
        assert "Z-cache" in capsys.readouterr().out


class TestResilienceFlags:
    def test_audit_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--audit"])
        assert code == 0
        import os

        assert os.environ.get("REPRO_AUDIT") == "on"

    def test_keep_going_reports_failures_and_exits_nonzero(
        self, capsys, monkeypatch
    ):
        def boom(app, scheme, scale=None, config=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--keep-going"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out or "FAILED" in captured.err
        assert "run(s) failed" in captured.err

    def test_without_keep_going_failures_abort(self, monkeypatch):
        def boom(app, scheme, scale=None, config=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        with pytest.raises(RuntimeError):
            main(["fig07", "--scale", "quick", "--apps", "compress"])

    def test_audited_sweep_runs_clean(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "on")
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        assert code == 0


class TestCacheOff:
    """With ``REPRO_CACHE=off`` the sweep executor never runs, so the
    flags only it honours are refused instead of silently ignored."""

    @pytest.mark.parametrize(
        "extra, env, flag",
        [
            (["--jobs", "2"], {}, "--jobs 2"),
            ([], {"REPRO_JOBS": "2"}, "REPRO_JOBS=2"),
            (["--profile"], {}, "--profile"),
            (["--resume"], {}, "--resume"),
            ([], {}, None),
        ],
        ids=["jobs-flag", "jobs-env", "profile", "resume", "default-jobs"],
    )
    def test_executor_flags_need_the_cache(
        self, capsys, monkeypatch, extra, env, flag
    ):
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code = main(["fig07", "--scale", "quick", "--apps", "compress", *extra])
        captured = capsys.readouterr()
        if flag is None:
            # The CPU-count default of --jobs stays silent.
            assert code == 0
            assert "Fig. 7" in captured.out
            assert "REPRO_CACHE" not in captured.err
        else:
            assert code == 2
            assert captured.out == ""
            assert flag in captured.err
            assert "REPRO_CACHE_DIR" in captured.err

