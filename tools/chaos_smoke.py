#!/usr/bin/env python3
"""CI chaos smoke: recovery under faults, worker kills, SIGTERM.

Three phases, all small enough for a CI job:

1. **Recovery smoke** — for every scheme family, run one application
   with a directory corruption injected mid-trace
   (``REPRO_FAULTS=corrupt_directory_entry@...``) under
   ``REPRO_RECOVERY=repair`` and assert the run completes, performed at
   least one repair, published the recovery stats section, and passes a
   full post-run invariant audit.
2. **Worker-kill smoke** — run a small supervised sweep in which one
   worker ``os._exit``\\ s mid-point exactly once (marker file), and
   assert the sweep still completes every point, respawned the pool,
   and the injected-fault repairs show up in the swept results'
   recovery sections.
3. **SIGTERM smoke** — SIGTERM a child mid-sweep and assert the
   distinct resumable exit code, a loadable flushed journal, and that
   ``resume=True`` completes the sweep without recomputing journaled
   points.

Run from the repo root::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import sys
import tempfile

# The worker-kill phase patches run_app in the parent and relies on
# fork workers inheriting the patch (same technique as the test suite).
if multiprocessing.get_start_method(allow_none=True) is None:
    try:
        multiprocessing.set_start_method("fork")
    except (ValueError, RuntimeError):
        pass

CHAOS_ENV = {
    "REPRO_SCALE": "quick",
    "REPRO_AUDIT": "1000",
    "REPRO_FAULTS": "corrupt_directory_entry@10000",
    "REPRO_FAULT_SEED": "11",
    "REPRO_RECOVERY": "repair",
}

SCHEMES = None  # populated in main() after the env is set


def _build_schemes():
    from repro.sim.config import (
        InLLCSpec,
        MgdSpec,
        SparseSpec,
        StashSpec,
        TinySpec,
    )

    return [
        ("sparse", SparseSpec(ratio=2.0)),
        ("inllc", InLLCSpec()),
        ("tiny", TinySpec(ratio=1 / 32, policy="gnru", spill=True,
                          spill_window=96)),
        ("mgd", MgdSpec(ratio=1 / 32)),
        ("stash", StashSpec(ratio=1 / 32)),
    ]


def recovery_smoke() -> None:
    """Every scheme self-heals an injected directory corruption."""
    from repro.analysis.runner import run_app

    for label, spec in _build_schemes():
        result = run_app("barnes", spec)
        injected = result.meta.get("injected_faults", 0)
        repairs = result.meta.get("repairs", 0)
        recovery = result.stats.recovery
        assert injected >= 1, f"{label}: no fault was injected"
        assert repairs >= 1, f"{label}: fault was not repaired"
        assert recovery.get("repairs", 0) >= 1, (
            f"{label}: recovery stats section missing/empty: {recovery}"
        )
        assert recovery.get("escalations", 0) == 0, (
            f"{label}: recovery escalated: {recovery}"
        )
        print(
            f"recovery[{label}]: injected={injected} repairs={repairs} "
            f"probe_messages={recovery['probe_messages']} "
            f"repair_cycles={recovery['repair_cycles']}"
        )


#: Marker file armed by the worker-kill phase; the patched run_app
#: kills its worker process exactly once, on the first sight of it.
_KILL_MARKER: "pathlib.Path | None" = None

_REAL_RUN_APP = None


def _killer_run_app(app, scheme, scale=None, config=None):
    name = app if isinstance(app, str) else app.name
    if name == "ocean_cp" and _KILL_MARKER is not None and _KILL_MARKER.exists():
        _KILL_MARKER.unlink()
        os._exit(71)
    return _REAL_RUN_APP(app, scheme, scale, config)


def worker_kill_smoke() -> None:
    """A killed sweep worker is survived, its point recomputed."""
    global _KILL_MARKER, _REAL_RUN_APP
    import repro.analysis.runner as runner_mod
    from repro.analysis.cache import clear_failed_marks
    from repro.analysis.runner import HarnessPolicy, scale_from_env
    from repro.parallel import SupervisorPolicy, SweepPoint, run_sweep
    from repro.sim.config import SparseSpec, TinySpec

    scale = scale_from_env()
    points = [
        SweepPoint("barnes", SparseSpec(ratio=2.0), scale),
        SweepPoint("ocean_cp", SparseSpec(ratio=2.0), scale),
        SweepPoint("swaptions", TinySpec(ratio=1 / 32, policy="gnru",
                                         spill=True,
                                         spill_window=scale.spill_window),
                   scale),
    ]
    _KILL_MARKER = pathlib.Path(tempfile.mkdtemp()) / "kill-once"
    _KILL_MARKER.write_text("armed")
    _REAL_RUN_APP = runner_mod.run_app
    runner_mod.run_app = _killer_run_app  # fork workers inherit this
    clear_failed_marks()
    try:
        report = run_sweep(
            points,
            jobs=2,
            policy=HarnessPolicy(keep_going=True),
            supervisor=SupervisorPolicy(
                max_pool_respawns=2,
                max_point_retries=1,
                backoff_base_s=0.05,
                backoff_cap_s=0.2,
                jitter_s=0.0,
            ),
        )
    finally:
        runner_mod.run_app = _REAL_RUN_APP
    assert report.pool_respawns >= 1, "worker kill did not break the pool"
    assert not report.failures, f"sweep lost points: {report.failures}"
    assert all(
        r is not None and not r.meta.get("failed") for r in report.results
    ), "a point came back failed"
    healed = [r for r in report.results if r.stats.recovery.get("repairs")]
    assert healed, "no swept result carries a recovery stats section"
    print(
        f"worker-kill: points={len(report.results)} "
        f"pool_respawns={report.pool_respawns} "
        f"degraded={report.degraded_serial} healed_points={len(healed)}"
    )


def _sigterm_child(points, cache_dir: str) -> None:
    from repro.analysis.runner import HarnessPolicy
    from repro.errors import ShutdownRequested
    from repro.parallel.shutdown import EXIT_INTERRUPTED, graceful_scope
    from repro.parallel import SweepJournal, run_sweep

    os.environ["REPRO_CACHE_DIR"] = cache_dir
    journal = SweepJournal(pathlib.Path(cache_dir) / SweepJournal.FILENAME)
    try:
        with graceful_scope():
            run_sweep(points, jobs=1, policy=HarnessPolicy(keep_going=True),
                      journal=journal)
    except ShutdownRequested:
        os._exit(EXIT_INTERRUPTED)
    os._exit(0)


def sigterm_smoke() -> None:
    """SIGTERM mid-sweep: resumable exit code + flushed journal."""
    import signal
    import time

    from repro.analysis.runner import HarnessPolicy, scale_from_env
    from repro.parallel.shutdown import EXIT_INTERRUPTED
    from repro.parallel import SweepJournal, SweepPoint, run_sweep
    from repro.sim.config import SparseSpec

    scale = scale_from_env()
    points = [
        SweepPoint(app, SparseSpec(ratio=2.0), scale)
        for app in ("barnes", "swaptions", "bodytrack")
    ]
    cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="chaos-sigterm-"))
    journal_path = cache_dir / SweepJournal.FILENAME
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_sigterm_child,
                        args=(points, str(cache_dir)))
    child.start()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and child.is_alive():
        if journal_path.exists() and journal_path.stat().st_size > 0:
            break
        time.sleep(0.02)
    if child.is_alive():
        os.kill(child.pid, signal.SIGTERM)
    child.join(timeout=60.0)
    assert child.exitcode in (EXIT_INTERRUPTED, 0), (
        f"sigterm: expected exit {EXIT_INTERRUPTED} (or 0 on race), "
        f"got {child.exitcode}"
    )
    journaled = SweepJournal(journal_path).load()
    assert journaled, "sigterm: journal empty after SIGTERM"
    saved_cache = os.environ["REPRO_CACHE_DIR"]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        resumed = run_sweep(points, jobs=1,
                            policy=HarnessPolicy(keep_going=True),
                            journal=SweepJournal(journal_path), resume=True)
    finally:
        os.environ["REPRO_CACHE_DIR"] = saved_cache
    assert not resumed.failures, f"sigterm: resume failed: {resumed.failures}"
    if child.exitcode == EXIT_INTERRUPTED:
        assert resumed.resumed_points >= 1, (
            "sigterm: resume ignored the journal"
        )
    print(f"sigterm: child exit={child.exitcode} "
          f"journaled={len(journaled)} resumed={resumed.resumed_points}")


def main() -> int:
    os.environ.update(CHAOS_ENV)
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="chaos-cache-")
    os.environ["REPRO_CACHE"] = "on"
    recovery_smoke()
    worker_kill_smoke()
    sigterm_smoke()
    print("chaos_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
