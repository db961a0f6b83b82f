"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import FIGURES, main
from repro.telemetry import read_trace


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # main() writes flags such as --audit into os.environ for pool
    # workers; undo that so they cannot leak into later tests.
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


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

    def test_injected_corruption_fails_the_point(self, capsys, monkeypatch):
        # The environment the fault-detection smoke uses: the auditor
        # catches the corrupted entry, and the run fails instead of
        # finishing with a clean-looking table.
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_directory_entry@10000")
        monkeypatch.setenv("REPRO_AUDIT", "1000")
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        code = main(["fig07", "--scale", "quick", "--apps", "barnes",
                     "--keep-going"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED barnes/" in captured.out
        assert "InvariantViolation" in captured.out
        assert "addr=0x" in captured.out
        assert "run(s) failed" in captured.err


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


class TestInvalidKnobs:
    """A ``REPRO_JOBS`` or ``REPRO_CACHE`` value the CLI cannot honour,
    or a ``REPRO_*`` name the program never reads, is a usage error that
    names the knob, never silently ignored."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_JOBS", "abc"),
            ("REPRO_JOBS", "0"),
            ("REPRO_JOBS", "-3"),
            ("REPRO_CACHE", "false"),
            ("REPRO_CACHE", "of"),
        ],
    )
    def test_invalid_value_is_a_usage_error(
        self, capsys, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"invalid {name}={value!r}" in captured.err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_METRICS", "on"),
            ("REPRO_RECOVERY", "repair"),
            ("REPRO_FAST", "off"),
            ("REPRO_AUDTI", "on"),
        ],
        ids=["retired-metrics", "retired-recovery", "retired-fast", "typo"],
    )
    def test_unknown_name_is_a_usage_error(
        self, capsys, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unknown {name}:" in captured.err
        assert "REPRO_AUDIT" in captured.err  # the known knobs are listed

    def test_every_knob_is_accepted(self, monkeypatch):
        from repro.__main__ import KNOBS, _invalid_knobs, build_parser

        for name in KNOBS:
            monkeypatch.setenv(name, "")
        args = build_parser().parse_args(["fig07"])
        assert _invalid_knobs(args) == []

    def test_jobs_flag_overrides_the_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--jobs", "1"])
        assert code == 0
        assert "REPRO_JOBS" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["ON", "No"])
    def test_cache_values_are_case_insensitive(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_CACHE", value)
        monkeypatch.setenv("REPRO_JOBS", "1")  # serial: no pool to start
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        assert code == 0
        assert "Fig. 7" in capsys.readouterr().out


class TestObservingNeedsColdCache:
    """A cached point is replayed, not simulated, so tracing or auditing
    on a warm cache is refused instead of silently observing nothing."""

    @pytest.mark.parametrize(
        "extra, env, warm, flag",
        [
            (["--trace"], {}, True, "--trace"),
            (["--trace-out", "TRACE"], {}, True, "--trace-out"),
            (["--audit"], {}, True, "--audit"),
            ([], {"REPRO_TRACE": "jsonl"}, True, "REPRO_TRACE=jsonl"),
            ([], {"REPRO_AUDIT": "on"}, True, "REPRO_AUDIT=on"),
            (["--trace", "--trace-out", "TRACE"], {}, False, None),
        ],
        ids=["trace", "trace-out", "audit", "trace-env", "audit-env", "cold"],
    )
    def test_observing_a_warm_cache_is_refused(
        self, tmp_path, capsys, monkeypatch, extra, env, warm, flag
    ):
        for name in ("REPRO_TRACE", "REPRO_TRACE_OUT", "REPRO_AUDIT"):
            monkeypatch.delenv(name, raising=False)
        argv = ["fig07", "--scale", "quick", "--apps", "compress"]
        trace = tmp_path / "t.jsonl"
        extra = [str(trace) if arg == "TRACE" else arg for arg in extra]
        if warm:
            assert main(argv) == 0  # warm the cache
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        capsys.readouterr()
        code = main(argv + extra)
        captured = capsys.readouterr()
        if flag is None:
            # A cold cache still runs, and traces.
            assert code == 0
            assert "Fig. 7" in captured.out
            assert trace.exists() == (not warm)
            if not warm:
                assert read_trace(trace)
        else:
            assert code == 2
            assert captured.out == ""
            assert flag in captured.err
            assert "the 1 point(s) already in the result cache" in captured.err
            assert "REPRO_CACHE_DIR" in captured.err
            assert not trace.exists()


class TestFlagRanges:
    """An out-of-range harness flag is a usage error, not a silent no-op."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--timeout", "nan"),
            ("--retries", "-3"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("-j", "0"),
        ],
    )
    def test_out_of_range_value_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig07", "--scale", "quick", "--apps", "compress", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert f"got {value}" in captured.err
