"""Resilience subsystem tests: auditing, flight recorder, hardened harness.

The acceptance bar (ISSUE): a fault injected via a FaultPlan into each
scheme is detected by the online auditor within one audit interval,
raising :class:`InvariantViolation` naming the corrupted address and the
involved cores; with auditing disabled, clean runs are bit-identical;
corrupt cache entries are quarantined and recomputed; ``keep_going``
collects per-run failures instead of aborting.
"""

import errno
import json
import os

import pytest

from repro.analysis import cache as result_cache
from repro.analysis.cache import cached_run, clear_failed_marks, point_key
from repro.analysis.runner import (
    HarnessPolicy,
    RunFailure,
    RunScale,
    harness,
    run_app_guarded,
)
from repro.errors import (
    ArtifactWriteError,
    InvariantViolation,
    RunTimeoutError,
)
from repro.parallel import SweepJournal, SweepPoint, run_sweep
from repro.resilience import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FlightRecorder,
    ProtocolAuditor,
    auditor_from_env,
)
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.telemetry import NULL_TRACER
from repro.types import Access, AccessKind
from repro.workloads.capture import TraceWriter
from repro.workloads.generator import generate_streams
from repro.workloads.profiles import profile

AUDIT_INTERVAL = 250
INJECT_AT = 1000  # audit-window boundary: corruption is seen immediately

SCALE = RunScale(num_cores=8, total_accesses=3000, spill_window=64)

SPEC = TinySpec(ratio=1 / 64, policy="gnru", spill_window=SCALE.spill_window)


def _points(scale=SCALE):
    """Three small, scheme-diverse sweep points."""
    return [
        SweepPoint("barnes", SparseSpec(ratio=2.0), scale),
        SweepPoint("ocean_cp", InLLCSpec(), scale),
        SweepPoint("barnes", SPEC, scale),
    ]


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """An isolated cache dir, the cache on, and no failure marks."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_failed_marks()
    yield
    clear_failed_marks()


def _build(spec, fault_kind=None, num_cores: int = 8):
    """System + streams for a small real workload, optionally faulted."""
    config = SystemConfig(num_cores=num_cores, l1_kb=1, l2_kb=4, scheme=spec)
    streams = generate_streams(profile("barnes"), config, 6000, seed=3)
    injector = None
    if fault_kind is not None:
        plan = FaultPlan(
            faults=(Fault(kind=fault_kind, after_access=INJECT_AT),), seed=7
        )
        injector = FaultInjector(plan)
    system = System(config, fault_injector=injector)
    return system, streams


SCHEMES = [
    pytest.param(SparseSpec(ratio=2.0), id="sparse"),
    pytest.param(InLLCSpec(), id="inllc"),
    pytest.param(TinySpec(ratio=1 / 32, policy="dstra"), id="tiny"),
    pytest.param(MgdSpec(ratio=1 / 8), id="mgd"),
    pytest.param(StashSpec(ratio=1 / 32), id="stash"),
]


class TestOnlineAuditor:
    @pytest.mark.parametrize("spec", SCHEMES)
    def test_fault_detected_within_one_audit_interval(self, spec):
        system, streams = _build(spec, FaultKind.DROP_PRIVATE_COPY)
        auditor = ProtocolAuditor(interval=AUDIT_INTERVAL)
        with pytest.raises(InvariantViolation) as excinfo:
            run_trace(system, streams, auditor=auditor)
        [injected] = system.fault_injector.injected
        assert injected.access_index == INJECT_AT
        assert system.access_index - injected.access_index <= AUDIT_INTERVAL
        message = str(excinfo.value)
        assert f"{excinfo.value.addr:#x}" in message
        assert excinfo.value.cores, "violation must name the involved cores"
        for core in excinfo.value.cores:
            assert str(core) in message

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_corrupt_tracking_entry_detected(self, spec):
        system, streams = _build(spec, FaultKind.CORRUPT_DIRECTORY_ENTRY)
        auditor = ProtocolAuditor(interval=AUDIT_INTERVAL)
        with pytest.raises(InvariantViolation):
            run_trace(system, streams, auditor=auditor)

    def test_diagnostics_include_bank_and_history(self):
        system, streams = _build(SparseSpec(ratio=2.0), FaultKind.DROP_PRIVATE_COPY)
        auditor = ProtocolAuditor(interval=AUDIT_INTERVAL)
        with pytest.raises(InvariantViolation) as excinfo:
            run_trace(system, streams, auditor=auditor)
        violation = excinfo.value
        assert violation.bank == system.home.bank_of(violation.addr)
        assert violation.history, "flight recorder should hold transactions"
        assert "last_transactions" in str(violation)
        # The injected fault itself is on the record for that address.
        assert any("fault:" in str(record) for record in violation.history)

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_clean_run_bit_identical_with_auditing(self, spec):
        system_plain, streams = _build(spec)
        stats_plain = run_trace(system_plain, streams)
        system_audited, streams = _build(spec)
        stats_audited = run_trace(
            system_audited, streams, auditor=ProtocolAuditor(interval=100)
        )
        assert stats_plain.dump() == stats_audited.dump()

    def test_clean_run_passes_audits(self):
        system, streams = _build(TinySpec(ratio=1 / 32, policy="gnru", spill=True,
                                          spill_window=64))
        run_trace(system, streams, auditor=ProtocolAuditor(interval=50))


class TestAuditorFromEnv:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert auditor_from_env() is None

    @pytest.mark.parametrize("value", ["off", "0", "no", "false"])
    def test_explicitly_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_AUDIT", value)
        assert auditor_from_env() is None

    @pytest.mark.parametrize("value", ["on", "1", "yes", "true"])
    def test_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_AUDIT", value)
        auditor = auditor_from_env()
        assert auditor is not None

    def test_numeric_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "123")
        assert auditor_from_env().interval == 123

    @pytest.mark.parametrize("value", ["ture", "-5", "0x10", "1.5"])
    def test_invalid_value_warns_instead_of_silently_disabling(
        self, monkeypatch, capsys, value
    ):
        # Regression: "ture" (typo for "true") or "-5" used to disable
        # auditing without a word — a chaos run silently became clean.
        monkeypatch.setenv("REPRO_AUDIT", value)
        assert auditor_from_env() is None
        err = capsys.readouterr().err
        assert "REPRO_AUDIT" in err and value in err
        assert "DISABLED" in err

    @pytest.mark.parametrize("value", ["off", "0", "no", "false", ""])
    def test_explicit_off_does_not_warn(self, monkeypatch, capsys, value):
        monkeypatch.setenv("REPRO_AUDIT", value)
        assert auditor_from_env() is None
        assert capsys.readouterr().err == ""


class TestFaultPlanFromEnv:
    def test_disabled_by_default(self, monkeypatch):
        from repro.resilience import injector_from_env, plan_from_env

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        assert injector_from_env() is None

    def test_parses_kinds_positions_and_seed(self, monkeypatch):
        from repro.resilience import plan_from_env

        monkeypatch.setenv(
            "REPRO_FAULTS", "corrupt_directory_entry@8000,flip_sharer_bit"
        )
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        plan = plan_from_env()
        assert plan is not None and plan.seed == 42
        assert [f.kind for f in plan.faults] == [
            FaultKind.CORRUPT_DIRECTORY_ENTRY,
            FaultKind.FLIP_SHARER_BIT,
        ]
        assert [f.after_access for f in plan.faults] == [8000, 1]

    @pytest.mark.parametrize(
        "value", ["corrupt_dir_entry@10", "flip_sharer_bit@x", "," ]
    )
    def test_invalid_value_warns_and_disables(self, monkeypatch, capsys, value):
        from repro.resilience import plan_from_env

        monkeypatch.setenv("REPRO_FAULTS", value)
        assert plan_from_env() is None
        err = capsys.readouterr().err
        assert "REPRO_FAULTS" in err and "DISABLED" in err

    def test_bad_seed_warns_and_disables(self, monkeypatch, capsys):
        from repro.resilience import plan_from_env

        monkeypatch.setenv("REPRO_FAULTS", "flip_sharer_bit@10")
        monkeypatch.setenv("REPRO_FAULT_SEED", "lots")
        assert plan_from_env() is None
        assert "REPRO_FAULT_SEED" in capsys.readouterr().err


class TestFlightRecorder:
    def test_null_recorder_is_inert(self):
        system, _ = _build(SparseSpec(ratio=2.0))
        recorder = system.home.observer  # nothing attached: the off state
        assert recorder is NULL_TRACER and not recorder.enabled
        recorder.emit("req:read", core=1, addr=0x40)

    def test_bounded_depth(self):
        recorder = FlightRecorder(depth=3)
        for i in range(10):
            recorder.emit(f"event{i}", core=0, addr=0x40)
        history = recorder.history(0x40)
        assert len(history) == 3
        assert [r.kind for r in history] == ["event7", "event8", "event9"]

    def test_sequence_numbers_are_global(self):
        recorder = FlightRecorder()
        recorder.emit("a", core=0, addr=0x40)
        recorder.emit("b", core=1, addr=0x80)
        seqs = [recorder.history(addr)[0].seq for addr in (0x40, 0x80)]
        assert seqs == sorted(seqs) and len(set(seqs)) == 2

    def test_bounded_address_count(self):
        recorder = FlightRecorder(depth=2, max_addresses=4)
        for addr in range(8):
            recorder.emit("touch", core=0, addr=addr)
        assert recorder.history(0) == ()  # oldest addresses dropped
        assert recorder.history(7)


class TestCrashSafeCache:
    def _scale(self):
        return RunScale(num_cores=4, total_accesses=800)

    def test_truncated_entry_quarantined_and_recomputed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")
        scale = self._scale()
        first = cached_run("barnes", SparseSpec(ratio=2.0), scale)
        [entry] = list(tmp_path.glob("*.json"))
        # Simulate a kill mid-write (pre-hardening): truncate the JSON.
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        again = cached_run("barnes", SparseSpec(ratio=2.0), scale)
        assert again.stats.dump() == first.stats.dump()
        assert not again.meta.get("cached")
        assert list(tmp_path.glob("*.json.bad")), "corrupt entry quarantined"
        # And the recomputed entry is valid and served from cache now.
        third = cached_run("barnes", SparseSpec(ratio=2.0), scale)
        assert third.meta.get("cached")
        # A second corruption of the same entry replaces its quarantined
        # copy: .bad files never outnumber cache entries.
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        fourth = cached_run("barnes", SparseSpec(ratio=2.0), scale)
        assert fourth.stats.dump() == first.stats.dump()
        assert not fourth.meta.get("cached")
        assert len(list(tmp_path.glob("*.json.bad"))) == 1

    def test_point_key_is_stable(self, monkeypatch):
        # Existing caches stay valid: the key of a clean point is the
        # one earlier releases computed.
        for name in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        key = point_key("barnes", SparseSpec(ratio=2.0), RunScale.quick())
        assert key == "4608e03d3faa63e578f46fb3"

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")
        cached_run("barnes", SparseSpec(ratio=2.0), self._scale())
        assert not list(tmp_path.glob("*.tmp"))
        [entry] = list(tmp_path.glob("*.json"))
        json.loads(entry.read_text())  # parseable, complete

    def test_failed_runs_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        policy = HarnessPolicy(keep_going=True)
        with harness(policy):
            result = cached_run("barnes", SparseSpec(ratio=2.0), self._scale())
        assert result.meta.get("failed")
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.usefixtures("isolated_cache")
    def test_enospc_degrades_to_uncached_without_litter(
        self, monkeypatch, capsys
    ):
        cdir = result_cache.cache_dir()
        real_replace = os.replace

        def exploding_replace(src, dst, **kwargs):
            if os.fspath(dst).startswith(os.fspath(cdir)):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", exploding_replace)
        result = cached_run("barnes", SPEC, SCALE)
        assert result.meta.get("uncached")
        assert "cache write skipped" in capsys.readouterr().err
        assert list(cdir.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# Journal and capture writers under ENOSPC
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("isolated_cache")
class TestJournalWriteFailure:
    def test_append_failure_is_structured(self, tmp_path):
        blocked = tmp_path / "journal-as-dir"
        blocked.mkdir()
        journal = SweepJournal(blocked)
        with pytest.raises(ArtifactWriteError) as excinfo:
            journal.record_ok("some-key")
        assert excinfo.value.path == str(blocked)

    def test_sweep_degrades_to_journal_less(self, monkeypatch, capsys):
        journal = SweepJournal(result_cache.cache_dir() / "sweep.journal")

        def exploding_append(*args, **kwargs):
            raise ArtifactWriteError(
                "simulated full disk", path=str(journal.path)
            )

        monkeypatch.setattr(journal, "record_ok", exploding_append)
        points = _points()[:2]
        report = run_sweep(points, jobs=1, journal=journal)
        assert len(report.results) == 2
        assert all(r is not None for r in report.results)
        assert "simulated full disk" in report.journal_disabled
        assert "sweep journal disabled" in capsys.readouterr().err
        summary = report.summary().render()
        assert "journal: disabled mid-sweep" in summary


class TestCaptureWriteFailure:
    class _ExplodingFile:
        def __init__(self, real):
            self._real = real

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

        def fileno(self):
            return self._real.fileno()

        def close(self):
            self._real.close()

    def test_create_failure_is_structured(self, tmp_path):
        blocking_file = tmp_path / "not-a-dir"
        blocking_file.write_text("x")
        with pytest.raises(ArtifactWriteError):
            TraceWriter(blocking_file / "t.rtrace", num_cores=1)

    def test_stream_write_failure_cleans_tmp(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.rtrace", num_cores=1)
        writer._file = self._ExplodingFile(writer._file)
        accesses = [Access(0, 4, AccessKind.READ)]
        with pytest.raises(ArtifactWriteError):
            writer.write_stream(0, accesses)
        assert not writer._tmp.exists()
        assert not writer.path.exists()

    def test_finalize_failure_cleans_tmp(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.rtrace", num_cores=1)
        writer.write_stream(0, [])
        writer._file = self._ExplodingFile(writer._file)
        with pytest.raises(ArtifactWriteError):
            writer.close()
        assert not writer._tmp.exists()
        assert not writer.path.exists()


class TestHardenedHarness:
    def test_keep_going_collects_failures(self, monkeypatch):
        calls = []

        def boom(app, scheme, scale=None, config=None):
            calls.append(app)
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        policy = HarnessPolicy(keep_going=True, max_retries=1)
        with harness(policy):
            result = run_app_guarded("barnes", SparseSpec(ratio=2.0))
        assert result.meta.get("failed")
        assert "synthetic failure" in result.meta["error"]
        [failure] = policy.failures
        assert isinstance(failure, RunFailure)
        assert failure.app == "barnes"
        assert failure.attempts == 2
        assert len(calls) == 2  # one retry

    def test_without_keep_going_the_error_propagates(self, monkeypatch):
        def boom(app, scheme, scale=None, config=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("repro.analysis.runner.run_app", boom)
        with pytest.raises(RuntimeError):
            run_app_guarded("barnes", SparseSpec(ratio=2.0))

    def test_retry_can_succeed(self, monkeypatch):
        attempts = []
        real_run_app = __import__(
            "repro.analysis.runner", fromlist=["run_app"]
        ).run_app

        def flaky(app, scheme, scale=None, config=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return real_run_app(
                app, scheme, RunScale(num_cores=4, total_accesses=400)
            )

        monkeypatch.setattr("repro.analysis.runner.run_app", flaky)
        policy = HarnessPolicy(keep_going=True, max_retries=2)
        with harness(policy):
            result = run_app_guarded("barnes", SparseSpec(ratio=2.0))
        assert not result.meta.get("failed")
        assert not policy.failures
        assert len(attempts) == 2

    def test_timeout_raises_runtimeout(self):
        # The timeout is a cooperative deadline checked inside the trace
        # engine and the stream generator, so a run far larger than the
        # limit allows is cut off shortly after the limit — on any
        # platform and in any thread (no signals involved).
        import time

        huge = RunScale(num_cores=8, total_accesses=2_000_000)
        policy = HarnessPolicy(timeout_s=0.2)
        start = time.monotonic()
        with harness(policy):
            with pytest.raises(RunTimeoutError):
                run_app_guarded("barnes", SparseSpec(ratio=2.0), huge)
        assert time.monotonic() - start < 20


class TestInvariantViolationDiagnostics:
    def test_structured_fields_render_in_message(self):
        violation = InvariantViolation(
            "phantom sharer", addr=0x1234, cores=(1, 5), bank=3
        )
        message = str(violation)
        assert "phantom sharer" in message
        assert "0x1234" in message
        assert "[1, 5]" in message
        assert "home_bank=3" in message

    def test_plain_message_unchanged(self):
        assert str(InvariantViolation("just text")) == "just text"
