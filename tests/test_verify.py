"""Tests for the protocol conformance subsystem (repro.verify)."""

import json

import pytest

from repro.errors import TraceError
from repro.telemetry import EVENT_KINDS
from repro.verify import (
    KNOWN_TRANSITIONS,
    CoverageMap,
    FaultStep,
    R,
    W,
    coverage_fraction,
    ddmin,
    default_verify_spec,
    fault_plan_for,
    fuzz_run,
    load_reproducer,
    replay,
    reproducer_dict,
    run_litmus,
    run_schedule,
    save_reproducer,
    step_from_dict,
    step_to_dict,
)
from repro.verify.cli import main as verify_main
from repro.verify.litmus import LITMUS_TESTS
from repro.verify.reproducer import SCHEME_SPECS

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

ALL_SCHEMES = sorted(SCHEME_SPECS)


# ----------------------------------------------------------------------
# Litmus engine
# ----------------------------------------------------------------------

class TestLitmus:
    def test_every_scheme_passes_the_library(self):
        schemes = {name: default_verify_spec(name) for name in ALL_SCHEMES}
        coverage = {name: CoverageMap() for name in ALL_SCHEMES}
        outcomes = run_litmus(schemes, coverage)
        failures = [o for o in outcomes if not o.passed]
        assert failures == []
        # Every scheme ran its applicable tests, scheme-specific ones
        # only where they apply.
        ran = {(o.scheme, o.test) for o in outcomes}
        assert ("tiny", "spill_recall") in ran
        assert ("sparse", "spill_recall") not in ran
        assert ("stash", "stash_recovery") in ran
        assert ("mgd", "mgd_region_demotion") in ran

    def test_litmus_collects_mesi_coverage(self):
        schemes = {"sparse": default_verify_spec("sparse")}
        coverage = {"sparse": CoverageMap()}
        run_litmus(schemes, coverage)
        covered = coverage["sparse"].covered()
        assert "mesi:I->E:read" in covered
        assert "mesi:S->M:write" in covered

    def test_library_names_are_unique(self):
        names = [t.name for t in LITMUS_TESTS]
        assert len(names) == len(set(names))


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

class TestOracle:
    def test_dropped_copy_produces_violation(self):
        """A write lost to a dropped private copy must surface — via the
        oracle or a protocol check — once the schedule touches it."""
        steps = [
            W(0, 5),
            FaultStep("drop_private_copy", 5, 0),
            R(1, 5),
            R(0, 5),
        ]
        result = run_schedule(steps, spec=default_verify_spec("sparse"))
        assert result.failed

    def test_clean_schedule_has_no_violation(self):
        steps = [W(0, 5), R(1, 5), W(1, 5), R(0, 5), R(2, 5)]
        for name in ALL_SCHEMES:
            result = run_schedule(steps, spec=default_verify_spec(name))
            assert result.violation is None, name


# ----------------------------------------------------------------------
# Fuzzer: clean runs, fault detection, shrinking
# ----------------------------------------------------------------------

class TestFuzzer:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_clean_fuzz_passes(self, scheme):
        result = fuzz_run(scheme, default_verify_spec(scheme), steps=1200, seed=7)
        assert result.violation is None
        assert result.coverage_counts  # coverage was collected

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_injected_fault_detected_and_shrunk(self, scheme):
        plan = fault_plan_for(scheme, 7, 0)
        result = fuzz_run(scheme, default_verify_spec(scheme), steps=1200, seed=8, plan=plan)
        assert result.detected, f"{scheme}: fault ran clean"
        assert result.injected  # the fault actually materialized
        assert 1 <= len(result.reproducer) <= 32
        # The minimized schedule still carries the pinned fault step.
        kinds = {type(step).__name__ for step in result.reproducer}
        assert "FaultStep" in kinds

    def test_minimized_reproducer_replays(self):
        plan = fault_plan_for("tiny", 7, 0)
        result = fuzz_run("tiny", default_verify_spec("tiny"), steps=1200, seed=8, plan=plan)
        assert result.detected
        replayed = run_schedule(
            result.reproducer,
            spec=default_verify_spec("tiny"),
            num_cores=16,
            l1_kb=8,
            l2_kb=32,
        )
        assert replayed.failed

    def test_ddmin_reduces_to_minimum(self):
        # Failing iff both 3 and 7 survive: ddmin must find exactly them.
        def test_fn(steps):
            return 3 in steps and 7 in steps

        minimal, replays = ddmin(list(range(10)), test_fn)
        assert sorted(minimal) == [3, 7]
        assert replays > 0


# ----------------------------------------------------------------------
# Coverage accounting
# ----------------------------------------------------------------------

class TestCoverage:
    def test_known_universe_is_wellformed(self):
        for scheme, universe in KNOWN_TRANSITIONS.items():
            assert scheme in SCHEME_SPECS
            assert len(universe) == len(set(universe))
            assert set(KNOWN_TRANSITIONS[scheme]) <= set(EVENT_KINDS)
            for label in universe:
                group, _, event = label.partition(":")
                assert group and event, label

    def test_fuzz_covers_most_known_transitions(self):
        schemes = {"tiny": default_verify_spec("tiny")}
        coverage = {"tiny": CoverageMap()}
        run_litmus(schemes, coverage)
        result = fuzz_run("tiny", default_verify_spec("tiny"), steps=4000, seed=7)
        coverage["tiny"].merge(result.coverage_counts)
        assert coverage_fraction("tiny", coverage["tiny"].covered()) >= 0.6

    def test_merge_accumulates_counts(self):
        a, b = CoverageMap(), CoverageMap()
        a.emit("x:1")
        b.emit("x:1")
        b.emit("y:2")
        a.merge(b)
        assert a.counts["x:1"] == 2
        assert a.counts["y:2"] == 1


# ----------------------------------------------------------------------
# Bit-identity: instrumentation off by default, quiet when on
# ----------------------------------------------------------------------

class TestBitIdentity:
    def test_harnessed_run_matches_bare_run(self):
        """Oracle + auditor + coverage probes must not perturb the
        simulated machine: cycles and stats stay bit-identical."""
        from repro.sim.config import SystemConfig
        from repro.sim.system import System

        steps = [R(0, 9), W(1, 9), R(2, 9), W(0, 3), R(1, 3), R(3, 9), W(2, 3)]
        spec = default_verify_spec("tiny")

        bare = System(SystemConfig(num_cores=4, l1_kb=1, l2_kb=4, scheme=spec))
        now = 0
        for step in steps:
            now += max(1, bare.access(step.core, step.addr, step.access_kind(), now))

        monitored = run_schedule(
            steps, spec=spec, audit_interval=1, coverage=CoverageMap()
        )
        assert monitored.violation is None
        assert monitored.executed == len(steps)
        # Rebuild a monitored system to compare stats dumps directly.
        from repro.verify.harness import VerifyHarness, build_system

        system = build_system(spec)
        harness = VerifyHarness(system, audit_interval=1, coverage=CoverageMap())
        for step in steps:
            harness.run_step(step)
        assert system.stats.dump() == bare.stats.dump()
        assert harness.now == now


# ----------------------------------------------------------------------
# Reproducer files
# ----------------------------------------------------------------------

class TestReproducer:
    def _payload(self):
        steps = [W(0, 5), FaultStep("drop_private_copy", 5, 0), R(1, 5)]
        return reproducer_dict(
            "sparse", default_verify_spec("sparse"), steps, "violation text", seed=3
        )

    def test_roundtrip_and_replay(self, tmp_path):
        path = save_reproducer(tmp_path / "r.json", self._payload())
        loaded = load_reproducer(path)
        assert loaded["scheme"] == "sparse"
        result = replay(loaded)
        assert result.failed

    def test_step_dict_roundtrip(self):
        for step in (R(1, 2), W(3, 4), FaultStep("flip_sharer_bit", 9, 2)):
            assert step_from_dict(step_to_dict(step)) == step

    def test_bad_version_rejected(self, tmp_path):
        payload = self._payload()
        payload["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceError):
            load_reproducer(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(TraceError):
            load_reproducer(path)


# ----------------------------------------------------------------------
# Parallel task fan-out
# ----------------------------------------------------------------------

class TestRunTasks:
    def test_preserves_order_inline(self):
        from repro.parallel import run_tasks

        assert run_tasks(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_preserves_order_parallel(self):
        from repro.parallel import run_tasks

        assert run_tasks(_double, list(range(8)), jobs=2) == [2 * n for n in range(8)]


def _double(n):
    return 2 * n


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_litmus_only_smoke(self, capsys, tmp_path):
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify: OK" in out

    def test_fuzz_with_fault_writes_reproducer(self, capsys, tmp_path):
        rc = verify_main(
            ["--fuzz", "--scheme", "tiny", "--steps", "800", "--seed", "7",
             "--faults", "1", "--jobs", "1", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault detected tiny" in out
        files = list(tmp_path.glob("tiny-fault-*.json"))
        assert len(files) == 1
        rc = verify_main(["--replay", str(files[0])])
        assert rc == 0

    def test_coverage_floor_failure_is_reported(self, capsys, tmp_path):
        rc = verify_main(
            ["--litmus", "--scheme", "sparse", "--min-coverage", "1.0",
             "--coverage-report", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "COVERAGE LOW" in out
        assert "transition coverage" in out

    def test_unknown_knob_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_AUDTI", "on")
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "unknown REPRO_AUDTI:" in captured.err

    @pytest.mark.parametrize("name", RETIRED_KNOBS)
    def test_retired_knob_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, name
    ):
        monkeypatch.setenv(name, "on")
        out = tmp_path / "out"
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out", str(out),
                          "--trace-out", str(tmp_path / "v.jsonl")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"unknown {name}:" in captured.err
        assert list(tmp_path.iterdir()) == []  # no trace, no reproducer

    @pytest.mark.parametrize(
        "name, value",
        [("REPRO_FAULTS", "bogus_kind@5"), ("REPRO_FAULT_SEED", "3")],
    )
    def test_fault_knob_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, name, value
    ):
        # verify seeds its fault runs with --faults; the figure CLI's
        # fault knobs would be accepted and ignored.
        monkeypatch.setenv(name, value)
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out",
                          str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"{name} is not read" in captured.err
        assert "verify --faults N" in captured.err
        assert list(tmp_path.iterdir()) == []  # no reproducer

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    @pytest.mark.parametrize("phase", ["--litmus", "--fuzz"])
    def test_invalid_jobs_knob_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, phase, value
    ):
        # As in the figure CLI: neither ignored (the litmus phase runs
        # no pool) nor replaced by the CPU count with a warning.
        monkeypatch.setenv("REPRO_JOBS", value)
        rc = verify_main([phase, "--scheme", "sparse", "--steps", "50",
                          "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"invalid REPRO_JOBS={value!r}" in captured.err
        assert list(tmp_path.iterdir()) == []  # no reproducer

    def test_jobs_flag_overrides_the_jobs_knob(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        rc = verify_main(["--fuzz", "--scheme", "sparse", "--steps", "50",
                          "--jobs", "1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verify: OK" in captured.out
        assert "REPRO_JOBS" not in captured.err

    def test_unused_directory_knobs_are_accepted(
        self, capsys, monkeypatch, tmp_path
    ):
        # verify never caches and writes no perf points: both directory
        # knobs are accepted, so one environment serves every command,
        # and nothing lands in either directory.
        cache, bench = tmp_path / "cache", tmp_path / "bench"
        cache.mkdir()
        bench.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(bench))
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out",
                          str(tmp_path / "out")])
        assert rc == 0
        assert "verify: OK" in capsys.readouterr().out
        assert list(cache.iterdir()) == []
        assert list(bench.iterdir()) == []

    def test_trace_out_writes_the_trace(self, capsys, tmp_path):
        from repro.telemetry import read_trace

        trace = tmp_path / "v.jsonl"
        rc = verify_main(["--litmus", "--scheme", "sparse", "--out",
                          str(tmp_path), "--trace-out", str(trace)])
        assert rc == 0
        assert read_trace(trace)

    def test_module_dispatch(self, capsys, tmp_path):
        from repro.__main__ import main as repro_main

        rc = repro_main(["verify", "--litmus", "--scheme", "in_llc",
                         "--out", str(tmp_path)])
        assert rc == 0
        assert "verify: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"),
        ("--steps", "0"),
        ("--steps", "-5"),
        ("--audit-interval", "0"),
        ("--faults", "-1"),
        ("--min-coverage", "-0.1"),
        ("--min-coverage", "1.5"),
        ("--min-coverage", "nan"),
    ])
    def test_out_of_range_value_is_a_usage_error(
        self, capsys, tmp_path, flag, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            verify_main(["--fuzz", "--scheme", "sparse", "--steps", "50",
                         "--out", str(tmp_path), flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert f"got {value}" in captured.err
