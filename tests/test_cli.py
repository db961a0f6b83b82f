"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import FIGURES, main
from repro.argtypes import KNOBS
from repro.telemetry import read_trace

#: Knobs the program no longer reads: ``--audit``, ``--trace`` and
#: ``--trace-out`` reach runs as arguments, and no variable swaps a
#: run's streams.
RETIRED_KNOBS = (
    "REPRO_AUDIT",
    "REPRO_TRACE",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_FILE",
    "REPRO_TRACE_OUT",
    "REPRO_TRACE_RECORD",
    "REPRO_TRACE_WORKER",
)


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
    def test_audit_flag_reaches_every_run(self, capsys, monkeypatch):
        from repro.analysis import runner

        real_run_app = runner.run_app
        seen = []

        def spy(app, scheme, scale=None, config=None, **observers):
            seen.append(observers)
            return real_run_app(app, scheme, scale, config, **observers)

        monkeypatch.setattr("repro.analysis.runner.run_app", spy)
        code = main(["fig05", "--scale", "quick", "--apps", "compress",
                     "--audit", "--jobs", "1"])
        assert code == 0
        assert seen == [{"audit": True, "trace_out": None}] * 2

    def test_keep_going_reports_failures_and_exits_nonzero(
        self, capsys, monkeypatch
    ):
        def boom(app, scheme, scale=None, config=None, **observers):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--keep-going"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out or "FAILED" in captured.err
        assert "run(s) failed" in captured.err

    def test_shared_failing_point_runs_once(self, capsys, monkeypatch):
        # fig01 and fig04 both normalize to barnes's 2x-sparse baseline.
        # At one job that failing point is simulated once, and both
        # figures report its failure.
        from repro.sim.config import SparseSpec
        from repro.sim.results import RunResult
        from repro.sim.stats import SimStats

        baseline = SparseSpec(ratio=2.0)
        calls = []

        def fake(app, scheme, scale=None, config=None, **observers):
            calls.append((app, scheme))
            if scheme == baseline:
                raise RuntimeError("synthetic failure")
            stats = SimStats()
            stats.cycles = 1
            return RunResult(app=app, scheme=scheme.name, stats=stats)

        monkeypatch.setattr("repro.analysis.runner.run_app", fake)
        code = main(["fig01", "fig04", "--scale", "quick", "--apps", "barnes",
                     "--keep-going", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert calls.count(("barnes", baseline)) == 1
        assert captured.out.count(
            "FAILED barnes/sparse: RuntimeError: synthetic failure") == 2
        assert "2 run(s) failed" in captured.err

    def test_without_keep_going_failures_abort(self, monkeypatch):
        def boom(app, scheme, scale=None, config=None, **observers):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        with pytest.raises(RuntimeError):
            main(["fig07", "--scale", "quick", "--apps", "compress"])

    def test_audited_sweep_runs_clean(self, capsys, monkeypatch):
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--audit"])
        assert code == 0

    def test_injected_corruption_fails_the_point(self, capsys, monkeypatch):
        # The command the fault-detection smoke runs: the auditor
        # catches the corrupted entry, and the run fails instead of
        # finishing with a clean-looking table.
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_directory_entry@10000")
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        code = main(["fig07", "--scale", "quick", "--apps", "barnes",
                     "--keep-going", "--audit"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED barnes/" in captured.out
        assert "InvariantViolation" in captured.out
        assert "addr=0x" in captured.out
        assert "run(s) failed" in captured.err


class TestCacheOff:
    """With ``REPRO_CACHE=off`` the figure CLI still sweeps and renders
    from the sweep's report, so the executor's flags work and print the
    cached run's figures; only ``--resume``, whose journal points into
    the cache, is refused."""

    @pytest.mark.parametrize(
        "extra, env, flag",
        [
            (["--jobs", "2"], {}, None),
            ([], {"REPRO_JOBS": "2"}, None),
            (["--profile"], {}, None),
            (["--resume"], {}, "--resume"),
            ([], {}, None),
        ],
        ids=["jobs-flag", "jobs-env", "profile", "resume", "default-jobs"],
    )
    def test_executor_flags_need_the_cache(
        self, tmp_path, tmp_path_factory, capsys, monkeypatch, extra, env, flag
    ):
        argv = ["fig07", "--scale", "quick", "--apps", "compress"]
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("on")))
        assert main(argv) == 0
        cache_on = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        if flag is None:
            assert code == 0
            if "--profile" in extra:
                # The profile tables come before the figures.
                assert captured.out.endswith(cache_on)
            else:
                assert captured.out == cache_on
            assert "REPRO_CACHE" not in captured.err
        else:
            assert code == 2
            assert captured.out == ""
            assert flag in captured.err
            assert "REPRO_CACHE_DIR" in captured.err
        assert list(tmp_path.iterdir()) == []  # nothing under the cache dir


class TestInvalidKnobs:
    """A ``REPRO_JOBS``, ``REPRO_SCALE``, ``REPRO_CACHE``,
    ``REPRO_FAULTS`` or ``REPRO_FAULT_SEED`` value the CLI cannot
    honour, or a ``REPRO_*`` name the program never reads, is a usage
    error that names the knob before anything runs, never silently
    ignored."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_JOBS", "abc"),
            ("REPRO_JOBS", "0"),
            ("REPRO_JOBS", "-3"),
            ("REPRO_CACHE", "false"),
            ("REPRO_CACHE", "of"),
            ("REPRO_SCALE", "bogus"),
            ("REPRO_FAULTS", "corrupt_dir@100"),  # unknown kind
            ("REPRO_FAULTS", "flip_sharer_bit@-5"),  # negative position
            ("REPRO_FAULTS", ","),  # an empty list
        ],
    )
    def test_invalid_value_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        argv = ["fig07", "--apps", "compress"]
        if name != "REPRO_SCALE":
            argv += ["--scale", "quick"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"invalid {name}={value!r}" in captured.err
        assert list(tmp_path.iterdir()) == []  # no result-cache entry

    def test_invalid_fault_seed_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "flip_sharer_bit@10")
        monkeypatch.setenv("REPRO_FAULT_SEED", "lots")
        code = main(["fig07", "--scale", "quick", "--apps", "compress",
                     "--audit"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "invalid REPRO_FAULT_SEED='lots'" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_METRICS", "on"),
            ("REPRO_RECOVERY", "repair"),
            ("REPRO_FAST", "off"),
            ("REPRO_HEARTBEAT", "2.5"),
            ("REPRO_AUDTI", "on"),
            *((name, "on") for name in RETIRED_KNOBS),
        ],
        ids=["retired-metrics", "retired-recovery", "retired-fast",
             "retired-heartbeat", "typo",
             *(f"retired-{name[6:].lower()}" for name in RETIRED_KNOBS)],
    )
    def test_unknown_name_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unknown {name}:" in captured.err
        assert "REPRO_SCALE" in captured.err  # the known knobs are listed
        assert list(tmp_path.iterdir()) == []  # no result-cache entry

    def test_every_knob_is_accepted(self, monkeypatch):
        from repro.__main__ import _invalid_knobs, build_parser
        from repro.argtypes import KNOBS

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

    #: One command per CLI that takes ``--jobs``: the figure CLI's
    #: refusal above holds for ``verify`` (litmus and fuzz) and ``diff``.
    SUBCOMMANDS = {
        "verify-litmus": ["verify", "--litmus", "--scheme", "sparse"],
        "verify-fuzz": ["verify", "--fuzz", "--scheme", "sparse",
                        "--steps", "50"],
        "diff": ["diff", "--trace",
                 str(Path(__file__).parent / "corpus" / "private-heavy.rtrace"),
                 "--schemes", "sparse"],
    }

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_subcommands_refuse_an_invalid_jobs_value(
        self, tmp_path, capsys, monkeypatch, command, value
    ):
        monkeypatch.setenv("REPRO_JOBS", value)
        out = tmp_path / "out"
        code = main([*self.SUBCOMMANDS[command], "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"invalid REPRO_JOBS={value!r}" in captured.err
        assert "ignoring" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_subcommand_jobs_flag_overrides_the_env(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        code = main([*self.SUBCOMMANDS[command], "--jobs", "1",
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "OK" in captured.out
        assert "REPRO_JOBS" not in captured.err

    def test_scale_flag_overrides_the_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        code = main(["fig07", "--scale", "quick", "--apps", "compress"])
        assert code == 0
        assert "REPRO_SCALE" not in capsys.readouterr().err

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
        "extra, warm, flag",
        [
            (["--trace"], True, "--trace"),
            (["--trace-out", "TRACE"], True, "--trace-out"),
            (["--audit"], True, "--audit"),
            (["--trace", "--trace-out", "TRACE"], False, None),
        ],
        ids=["trace", "trace-out", "audit", "cold"],
    )
    def test_observing_a_warm_cache_is_refused(
        self, tmp_path, capsys, monkeypatch, extra, warm, flag
    ):
        argv = ["fig07", "--scale", "quick", "--apps", "compress"]
        trace = tmp_path / "t.jsonl"
        extra = [str(trace) if arg == "TRACE" else arg for arg in extra]
        if warm:
            assert main(argv) == 0  # warm the cache
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


# ----------------------------------------------------------------------
# One row per knob: what setting it does
# ----------------------------------------------------------------------

FIGURE = ["fig07", "--scale", "quick", "--apps", "compress"]


def _bench_dir_row(tmp_path, monkeypatch, capsys):
    from repro.telemetry import bench_dir_from_env, write_bench_point

    out = tmp_path / "bench"
    monkeypatch.setenv("REPRO_BENCH_DIR", str(out))
    write_bench_point(bench_dir_from_env(), "row", seconds=1.0)
    assert [path.name for path in out.iterdir()] == ["BENCH_row.json"]


def _cache_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert main(FIGURE) == 0
    assert "Fig. 7" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # no result-cache entry


def _cache_dir_row(tmp_path, monkeypatch, capsys):
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
    assert main(FIGURE) == 0
    assert list(elsewhere.glob("*.json"))


def _faults_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "corrupt_directory_entry@10000")
    code = main(["fig07", "--scale", "quick", "--apps", "barnes",
                 "--keep-going", "--audit"])
    assert code == 1
    assert "InvariantViolation" in capsys.readouterr().out


def _fault_seed_row(tmp_path, monkeypatch, capsys):
    from repro.analysis.cache import point_key
    from repro.analysis.runner import RunScale
    from repro.sim.config import SparseSpec

    monkeypatch.setenv("REPRO_FAULTS", "flip_sharer_bit@10")
    keys = set()
    for seed in ("1", "2"):
        monkeypatch.setenv("REPRO_FAULT_SEED", seed)
        keys.add(point_key("barnes", SparseSpec(ratio=2.0), RunScale.quick()))
    assert len(keys) == 2


def _jobs_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main(["fig05", "--scale", "quick", "--apps", "compress"]) == 0
    assert "jobs=2" in capsys.readouterr().err


def _scale_row(tmp_path, monkeypatch, capsys):
    flagged = tmp_path / "flagged"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(flagged))
    assert main(FIGURE) == 0
    quick = capsys.readouterr().out
    by_env = tmp_path / "by-env"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(by_env))
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert main(["fig07", "--apps", "compress"]) == 0
    assert capsys.readouterr().out == quick
    # Same cache keys: the run's scale is the quick preset.
    names = sorted(path.name for path in flagged.glob("*.json"))
    assert names and sorted(path.name for path in by_env.glob("*.json")) == names


#: ``KNOBS`` entry -> a row asserting what setting it does.
KNOB_ROWS = {
    "REPRO_BENCH_DIR": _bench_dir_row,
    "REPRO_CACHE": _cache_row,
    "REPRO_CACHE_DIR": _cache_dir_row,
    "REPRO_FAULTS": _faults_row,
    "REPRO_FAULT_SEED": _fault_seed_row,
    "REPRO_JOBS": _jobs_row,
    "REPRO_SCALE": _scale_row,
}


class TestKnobs:
    """Every knob the CLIs accept has an observable effect."""

    def test_every_knob_has_a_row(self):
        assert set(KNOB_ROWS) == set(KNOBS)

    @pytest.mark.parametrize("name", sorted(KNOB_ROWS))
    def test_knob_has_its_effect(self, tmp_path, capsys, monkeypatch, name):
        for knob in KNOBS:
            if knob != "REPRO_CACHE_DIR":
                monkeypatch.delenv(knob, raising=False)
        KNOB_ROWS[name](tmp_path, monkeypatch, capsys)
