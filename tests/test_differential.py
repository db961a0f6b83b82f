"""Differential harness smoke tests: agreement, detection, bisection.

The load-bearing scenario: seed a known corrupted-state fault into a
recorded trace, and the harness must (a) flag the faulted scheme as
divergent, (b) bisect the divergence down to a replayable sub-trace of
at most 64 accesses, and (c) re-trigger the violation when that
sub-trace is replayed — both through the API and the CLI.
"""

import json
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.resilience.faults import Fault, FaultKind, FaultPlan
from repro.sim.config import SystemConfig
from repro.verify.diff_cli import main as diff_main
from repro.verify.differential import (
    ALL_SCHEMES,
    DEFAULT_TOLERANCES,
    EXACT_KEYS,
    PAIR_TOLERANCES,
    bisect_divergence,
    diff_trace,
    plan_from_dict,
    plan_to_dict,
    run_monitored,
    tolerance_for,
    truncate_streams,
)
from repro.sim.engine import TraceEngine, run_trace
from repro.sim.system import System
from repro.verify.reproducer import default_verify_spec
from repro.workloads.capture import load_capture, save_capture
from repro.workloads.generator import SyntheticTraceGenerator
from repro.workloads.profiles import profile

CORES = 4
ACCESSES = 600
SEED = 5

#: The canonical seeded corruption: drop a private copy after access 40.
#: Applicable under every scheme (unlike directory-entry kinds, which
#: need a block-grain tracking record to exist at the firing point).
FAULT_PLAN = FaultPlan(
    faults=(Fault(FaultKind.DROP_PRIVATE_COPY, after_access=40),), seed=1
)


@pytest.fixture(scope="module")
def small_streams():
    app = profile("barnes")
    config = SystemConfig(num_cores=CORES, l1_kb=1, l2_kb=4)
    return SyntheticTraceGenerator(app, config, SEED).generate(ACCESSES)


@pytest.fixture(scope="module")
def small_trace(small_streams, tmp_path_factory):
    path = tmp_path_factory.mktemp("diff") / "small.rtrace"
    save_capture(
        path,
        small_streams,
        profile=profile("barnes"),
        seed=SEED,
        total_accesses=ACCESSES,
        geometry={"num_cores": CORES, "l1_kb": 1, "l2_kb": 4},
    )
    return path


# ----------------------------------------------------------------------
# Monitored runs and truncation
# ----------------------------------------------------------------------

def test_clean_monitored_run(small_streams):
    run = run_monitored("tiny", default_verify_spec("tiny"), small_streams)
    assert run.ok
    assert run.violation is None
    assert run.processed == sum(len(s) for s in small_streams)
    assert run.executed == [len(s) for s in small_streams]
    assert run.injected == []


def test_bounded_prefix_replays_exactly(small_streams):
    spec = default_verify_spec("tiny")
    bounded = run_monitored("tiny", spec, small_streams, limit=50)
    assert bounded.processed == 50
    sub = truncate_streams(small_streams, bounded.executed)
    assert [len(s) for s in sub] == bounded.executed
    replayed = run_monitored("tiny", spec, sub)
    assert replayed.ok
    assert replayed.processed == 50
    assert replayed.executed == bounded.executed


def test_seeded_fault_is_detected(small_streams):
    run = run_monitored(
        "tiny",
        default_verify_spec("tiny"),
        small_streams,
        fault_plan=FAULT_PLAN,
        audit_interval=16,
    )
    assert not run.ok
    assert run.violation
    assert len(run.injected) == 1
    assert run.injected[0]["kind"] == "drop_private_copy"


def test_exact_keys_are_scheme_independent(small_streams):
    dumps = [
        run_monitored(name, default_verify_spec(name), small_streams).stats
        for name in ("sparse", "tiny", "stash")
    ]
    for key in EXACT_KEYS:
        values = {dump["scalars"][key] for dump in dumps}
        assert len(values) == 1, f"{key} differs across schemes: {values}"


# ----------------------------------------------------------------------
# The satellite scenario: flag, bisect, replay
# ----------------------------------------------------------------------

def test_fault_flagged_bisected_and_replayable(small_trace, tmp_path):
    report = diff_trace(
        small_trace,
        ("tiny", "sparse"),
        fault_plan=FAULT_PLAN,
        bisect=True,
        out_dir=tmp_path,
        jobs=1,
        audit_interval=16,
    )
    assert report["ok"], report["failures"]
    assert sorted(report["detection"]["detected"]) == ["sparse", "tiny"]
    assert report["detection"]["missed"] == []
    for name in ("tiny", "sparse"):
        result = report["schemes"][name]
        assert not result["ok"]
        assert result["reproducer"] is not None
        assert result["reproducer_accesses"] <= 64

    # The minimal sub-trace must re-trigger the violation when handed
    # straight back to diff_trace, which picks up the scheme, spec, and
    # fault plan pinned in its header.
    reproducer = report["schemes"]["tiny"]["reproducer"]
    sub_report = diff_trace(reproducer, jobs=1)
    assert tuple(sub_report["schemes"]) == ("tiny",)
    assert sub_report["ok"], sub_report["failures"]
    assert sub_report["detection"]["detected"] == ["tiny"]
    rerun = sub_report["schemes"]["tiny"]
    assert not rerun["ok"]
    assert rerun["violation"]
    assert rerun["stats"] is None

    # And the JSON report landed next to the reproducers.
    report_path = tmp_path / f"diff-{small_trace.stem}.json"
    assert report_path.exists()
    assert json.loads(report_path.read_text())["ok"] is True


def test_bisect_finds_minimal_failing_prefix(small_streams):
    spec = default_verify_spec("tiny")
    failing = run_monitored(
        "tiny",
        spec,
        small_streams,
        fault_plan=FAULT_PLAN,
        audit_interval=16,
    )
    assert not failing.ok
    limit, minimal = bisect_divergence(
        "tiny",
        spec,
        small_streams,
        fault_plan=FAULT_PLAN,
        fail_processed=failing.processed,
        audit_interval=16,
    )
    assert not minimal.ok
    assert limit <= 64
    # One shorter must pass: that is what "minimal" means.
    shorter = run_monitored(
        "tiny",
        spec,
        small_streams,
        limit=limit - 1,
        fault_plan=FAULT_PLAN,
        audit_interval=16,
    )
    assert shorter.ok


def test_missed_fault_is_a_failure(small_trace, monkeypatch, tmp_path):
    # A fault planned far past the end of the trace never fires, so every
    # scheme stays clean — the report must call that a miss, not a pass.
    late = FaultPlan(
        faults=(Fault(FaultKind.DROP_PRIVATE_COPY, after_access=10**9),),
        seed=1,
    )
    report = diff_trace(small_trace, ("tiny",), fault_plan=late, jobs=1)
    assert not report["ok"]
    assert report["detection"]["missed"] == ["tiny"]
    assert any("FAULT MISSED" in failure for failure in report["failures"])


# ----------------------------------------------------------------------
# Tolerances and plan serialization
# ----------------------------------------------------------------------

def test_tolerance_for_is_symmetric_and_merged():
    assert tolerance_for("sparse", "tiny") == tolerance_for("tiny", "sparse")
    merged = tolerance_for("sparse", "tiny")
    assert merged["cycles"] == PAIR_TOLERANCES[frozenset({"sparse", "tiny"})]["cycles"]
    assert merged["llc_misses"] == DEFAULT_TOLERANCES["llc_misses"]
    assert tolerance_for("in_llc", "tiny") == DEFAULT_TOLERANCES


def test_fault_plan_round_trip():
    plan = FaultPlan(
        faults=(
            Fault(FaultKind.DROP_PRIVATE_COPY, after_access=40, addr=7, core=2),
            Fault(FaultKind.CORRUPT_DIRECTORY_ENTRY, after_access=99),
        ),
        seed=17,
    )
    assert plan_from_dict(plan_to_dict(plan)) == plan


def test_malformed_plan_payload_raises():
    with pytest.raises(TraceError, match="malformed fault plan"):
        plan_from_dict({"faults": [{"kind": "no_such_kind"}]})


def test_plain_trace_runs_every_requested_scheme_clean(small_trace):
    # Only a sub-trace's header pins a scheme and a fault plan: a plain
    # capture runs each requested scheme, expecting no divergence.
    report = diff_trace(small_trace, ("tiny", "sparse"), jobs=1)
    assert report["ok"], report["failures"]
    assert sorted(report["schemes"]) == ["sparse", "tiny"]
    assert "detection" not in report
    assert all(result["ok"] for result in report["schemes"].values())


# ----------------------------------------------------------------------
# One simulation per (trace, scheme)
# ----------------------------------------------------------------------

CORPUS_TRACE = Path(__file__).parent / "corpus" / "private-heavy.rtrace"


def test_clean_report_stats_equal_an_unobserved_run():
    streams, header = load_capture(CORPUS_TRACE)
    geometry = header["geometry"]
    report = diff_trace(CORPUS_TRACE, jobs=1)
    assert report["ok"], report["failures"]
    assert sorted(report["schemes"]) == sorted(ALL_SCHEMES)
    for name in ALL_SCHEMES:
        config = SystemConfig(
            num_cores=len(streams),
            l1_kb=geometry["l1_kb"],
            l2_kb=geometry["l2_kb"],
            scheme=default_verify_spec(name),
        )
        expected = run_trace(System(config), streams, warmup_fraction=0.0)
        assert report["schemes"][name]["stats"] == expected.dump(), name


def test_clean_diff_runs_each_scheme_once(small_trace, monkeypatch):
    runs = []
    real_run = TraceEngine.run

    def counting_run(self, limit=None):
        runs.append(self.system.config.scheme.name)
        return real_run(self, limit)

    monkeypatch.setattr(TraceEngine, "run", counting_run)
    report = diff_trace(small_trace, jobs=1)
    assert report["ok"], report["failures"]
    assert sorted(runs) == sorted(
        default_verify_spec(name).name for name in ALL_SCHEMES
    )
    assert len(set(runs)) == len(ALL_SCHEMES)


def test_inline_diff_decodes_the_trace_once(monkeypatch):
    # The five inline tasks share the streams diff_trace decoded to read
    # the header; pool workers would decode their own.
    import repro.verify.differential as differential

    decoded = []

    def counting_load(path):
        decoded.append(path)
        return load_capture(path)

    monkeypatch.setattr(differential, "load_capture", counting_load)
    trace = Path(__file__).parent / "corpus" / "private-heavy.rtrace"
    report = diff_trace(trace, jobs=1)
    assert report["ok"], report["failures"]
    assert sorted(report["schemes"]) == sorted(ALL_SCHEMES)
    assert len(decoded) == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_record_then_clean_diff(tmp_path, capsys):
    trace = tmp_path / "cli.rtrace"
    assert diff_main(
        [
            "--record", str(trace),
            "--app", "barnes",
            "--cores", str(CORES),
            "--accesses", str(ACCESSES),
            "--seed", str(SEED),
        ]
    ) == 0
    assert trace.exists()
    out = tmp_path / "reports"
    assert diff_main(
        [
            "--trace", str(trace),
            "--schemes", "tiny,stash",
            "--jobs", "1",
            "--out", str(out),
        ]
    ) == 0
    report = json.loads((out / "diff-cli.json").read_text())
    assert report["ok"]
    assert sorted(report["schemes"]) == ["stash", "tiny"]
    assert "diff: OK" in capsys.readouterr().out


def test_cli_fault_detection_bisects(small_trace, tmp_path, capsys):
    out = tmp_path / "reports"
    assert diff_main(
        [
            "--trace", str(small_trace),
            "--schemes", "tiny",
            "--fault", "drop_private_copy@40",
            "--fault-seed", "1",
            "--audit-interval", "16",
            "--bisect",
            "--jobs", "1",
            "--out", str(out),
        ]
    ) == 0
    printed = capsys.readouterr().out
    assert "DIVERGED" in printed
    assert "reproducer" in printed
    reproducers = list(out.glob("repro-*.rtrace"))
    assert len(reproducers) == 1
    # The sub-trace replays through the same command, under the scheme
    # and fault plan its header records, and must be detected again.
    assert diff_main(
        ["--trace", str(reproducers[0]), "--jobs", "1",
         "--out", str(tmp_path / "replays")]
    ) == 0
    printed = capsys.readouterr().out
    assert "tiny: DIVERGED" in printed
    assert "diff: OK (1 trace(s))" in printed


def test_cli_usage_errors(tmp_path, capsys):
    assert diff_main([]) == 2
    assert diff_main(["--trace", str(tmp_path / "missing.rtrace")]) == 2
    assert diff_main(["--trace", str(tmp_path), "--schemes", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "need --trace" in err


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"),
    ("--audit-interval", "0"),
    ("--audit-interval", "-4"),
    ("--cores", "0"),
    ("--accesses", "0"),
])
def test_cli_out_of_range_value_is_a_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        diff_main(["--trace", str(tmp_path), "--schemes", "sparse,tiny",
                   flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert f"got {value}" in captured.err


def test_cli_unknown_knob_is_a_usage_error(small_trace, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_AUDTI", "on")
    assert diff_main(
        ["--trace", str(small_trace), "--schemes", "sparse,tiny"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown REPRO_AUDTI:" in captured.err


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


@pytest.mark.parametrize("name", RETIRED_KNOBS)
def test_cli_retired_knob_is_a_usage_error(
    small_trace, tmp_path, monkeypatch, capsys, name
):
    monkeypatch.setenv(name, "on")
    out = tmp_path / "reports"
    assert diff_main(
        ["--trace", str(small_trace), "--schemes", "sparse,tiny",
         "--out", str(out)]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown {name}:" in captured.err
    assert not out.exists()  # no report written


def test_cli_unknown_fault_kind(small_trace, capsys):
    assert diff_main(
        ["--trace", str(small_trace), "--fault", "melt_the_llc"]
    ) == 2
    assert "unknown fault kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value", [("REPRO_FAULTS", "bogus_kind@5"), ("REPRO_FAULT_SEED", "3")]
)
def test_cli_fault_knob_is_a_usage_error(
    small_trace, tmp_path, monkeypatch, capsys, name, value
):
    # diff seeds faults with its own flags; the figure CLI's fault knobs
    # would be accepted and ignored.
    monkeypatch.setenv(name, value)
    out = tmp_path / "reports"
    assert diff_main(
        ["--trace", str(small_trace), "--schemes", "sparse,tiny",
         "--out", str(out)]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} is not read" in captured.err
    assert "diff --fault KIND@N --fault-seed S" in captured.err
    assert not out.exists()  # no report written


@pytest.mark.parametrize(
    "fault, problem",
    [
        ("drop_private_copy@-5", "bad access position '-5'"),
        ("drop_private_copy@x", "bad access position 'x'"),
        ("melt_the_llc@5", "unknown fault kind 'melt_the_llc'"),
    ],
    ids=["negative-position", "non-integer-position", "unknown-kind"],
)
def test_cli_invalid_fault_is_a_usage_error(
    small_trace, tmp_path, capsys, fault, problem
):
    # The grammar REPRO_FAULTS uses: a negative position is refused, not
    # run as @1.
    out = tmp_path / "reports"
    assert diff_main(
        ["--trace", str(small_trace), "--schemes", "sparse", "--fault",
         fault, "--jobs", "1", "--out", str(out)]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid --fault {fault!r} ({problem}" in captured.err
    assert not out.exists()


def test_all_schemes_constant_matches_specs():
    assert set(ALL_SCHEMES) == {"sparse", "in_llc", "tiny", "mgd", "stash"}
    for name in ALL_SCHEMES:
        assert default_verify_spec(name) is not None
