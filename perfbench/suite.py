"""The benchmark's workloads, and one measured pass of a workload.

``run.py`` starts one fresh process per pass::

    python3 perfbench/suite.py --workload shared --seed 1 --spawned-at T --calib C [--traced]

and reads the pass record, a JSON object printed as the last line of
standard output. ``T`` is the parent's ``time.perf_counter()`` just
before the spawn; on Linux that clock is ``CLOCK_MONOTONIC``, shared by
every process, so ``setup_s`` starts at process creation. ``C`` is the
parent's :func:`calibrate` just before ``T``.

Every workload is a closed loop in one process: each point runs to
completion before the next starts. The machine is the quick scale of
the figure CLI (16 cores, 8 KB L1, 32 KB L2), and the five tracking
schemes are configured as the figures configure them. Why each workload
exists, and which layer numbers it should move, is in README.md.

Host times in the record are at the reference host speed (see
:class:`HostClock`), except the traced per-layer spans.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (result caches of sweep passes).
WORK_DIR = ROOT / ".perfbench_work"

#: The seed the committed digests in expected.json were taken at; it is
#: also ``RunScale.quick().seed``, so at this seed the sweep is exactly
#: the figure CLI's ``--scale quick`` run.
DEFAULT_SEED = 1

#: The sweep: Fig. 13 over three applications (12 points), on as many
#: workers as the reference host has cores. All seventeen applications
#: (68 points) take longer than one measured run.
SWEEP_FIGURE = "fig13"
SWEEP_APPS = ("barnes", "TPC-C", "ocean_cp")
SWEEP_JOBS = 2

#: Seconds :func:`calibrate` takes on the reference host (a 2-vCPU VM)
#: in its fast periods; host times are reported at this speed.
REFERENCE_CALIB_S = 0.016


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes now: the host's speed.

    The kernel is a small set-associative cache with LRU replacement,
    driven by a fixed pseudo-random address stream: dict lookups,
    inserts and deletes and slotted-object allocation, the operations
    the simulator spends its time on. About 16 ms on the reference host.
    It is part of the benchmark, not of the simulator, so a change to
    the simulator leaves it alone.
    """
    started = time.perf_counter()
    sets = [{} for _ in range(256)]
    state = 12345
    for _ in range(20_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (state >> 4) % 16384
        ways = sets[addr & 255]
        line = ways.get(addr)
        if line is not None:
            del ways[addr]
            ways[addr] = line
            line.dirty = line.dirty or state & 3 == 0
        else:
            if len(ways) >= 8:
                del ways[next(iter(ways))]
            ways[addr] = _Line(addr)
    return time.perf_counter() - started


def _serve_calibrations(conn) -> None:
    """Helper process: time :func:`calibrate` whenever asked, until told to stop."""
    calibrate()  # warm up, so that the first answer is like the rest
    with conn:
        while conn.recv():
            conn.send(calibrate())


class HostClock:
    """Scales the host times of a pass's phases to the reference speed.

    The reference host's speed drifts by up to 1.7x, for seconds or
    for minutes at a time, as other tenants load it. So a pass
    calibrates between its phases, outside every timed span, and a
    phase's host time is multiplied by ``REFERENCE_CALIB_S`` over the
    mean of the calibrations just before and just after it. Over five
    minutes of ``shared`` points, the per-point median of 40-s windows
    spread (interquartile range over median) 0.16 in raw host seconds,
    0.11 scaled by a plain arithmetic loop and 0.04 scaled by
    :func:`calibrate`.

    The kernel runs in helper processes, started at the first
    calibration, because its freed objects would otherwise stay in the
    heap the simulator allocates from next: timed in the pass's own
    process, it moved ``coherence.share`` on ``private-hit`` from 6% to
    11%. With ``helpers`` above one, :meth:`calibrate` can time the
    kernel on several helpers at once: the reference host's two vCPUs
    can share a physical core, so one busy vCPU can read fast while two
    busy vCPUs are slow.
    """

    def __init__(self, calib_before: float, helpers: int = 1) -> None:
        self._last = calib_before
        self._helpers = helpers
        self._conns: list = []
        self._processes: list = []
        #: The factor of each phase so far.
        self.factors: "list[float]" = []

    def calibrate(self, busy: int = 1) -> float:
        """Mean seconds of :func:`calibrate` on ``busy`` helpers at once."""
        if not self._processes:
            context = multiprocessing.get_context("spawn")
            for _ in range(self._helpers):
                conn, child_conn = context.Pipe()
                process = context.Process(target=_serve_calibrations, args=(child_conn,))
                process.start()
                child_conn.close()
                self._conns.append(conn)
                self._processes.append(process)
        asked = self._conns[:busy]
        for conn in asked:
            conn.send(True)
        return statistics.mean(conn.recv() for conn in asked)

    def close(self) -> None:
        """Stop the helpers and wait for them."""
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper has already gone
            conn.close()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._conns, self._processes = [], []

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def end_phase(self) -> float:
        """Calibrate; return the factor of the phase that just ended."""
        now = self.calibrate()
        factor = 2 * REFERENCE_CALIB_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor


#: Spec ``name`` of each scheme as the figures configure it, in figure
#: order: sparse 2x, in-LLC data-borrowed, tiny 1/256x gNRU+DynSpill,
#: MgD 1/8x and Stash 1/32x.
ALL_SCHEMES = ("sparse", "in_llc", "tiny", "mgd", "stash")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named set of inputs."""

    name: str
    #: One line: why the workload exists (also in BENCHMARK.json).
    why: str
    #: Table II applications (or ``micro_private_hit``), one trace each.
    apps: "tuple[str, ...]"
    #: Steady-state accesses generated per trace (the init pass that
    #: touches every block once comes on top).
    accesses: int = 0
    #: Spec names of the schemes each trace runs under, one point each.
    schemes: "tuple[str, ...]" = ALL_SCHEMES
    #: True for the figure sweep, whose points run in worker processes.
    sweep: bool = False


WORKLOADS: "dict[str, Workload]" = {
    workload.name: workload
    for workload in (
        Workload(
            "shared",
            "barnes and TPC-C under all five schemes: hot, widely shared "
            "read-mostly sets and shared-pool writes, so forwarded reads, "
            "STRA, tiny-directory spilling and invalidations do the work",
            ("barnes", "TPC-C"),
            10_000,
        ),
        Workload(
            "private-hit",
            "micro_private_hit under sparse 2x: 99% L1 hits, so the engine "
            "loop and trace generation do the work; the control where a "
            "home or tracking change must predict no change",
            ("micro_private_hit",),
            300_000,
            ("sparse",),
        ),
        Workload(
            "fig13-sweep",
            "cold fig13 --scale quick --jobs 2 over barnes, TPC-C and "
            "ocean_cp: what users wait for, and the only workload that runs "
            "the analysis and parallel layers",
            SWEEP_APPS,
            sweep=True,
        ),
    )
}


def figure_schemes(scale, names: "tuple[str, ...]" = ALL_SCHEMES) -> list:
    """The named schemes as the figures configure them."""
    from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec

    specs = {
        "sparse": SparseSpec(ratio=2.0),
        "in_llc": InLLCSpec(tag_extended=False),
        "tiny": scale.tiny_spec(1 / 256, "gnru", spill=True),
        "mgd": MgdSpec(ratio=1 / 8),
        "stash": StashSpec(ratio=1 / 32),
    }
    return [specs[name] for name in names]


def digest(stats) -> str:
    """Identity of one point's results: a hash of ``SimStats.dump()``."""
    encoded = json.dumps(stats.dump(), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def spec_label(spec) -> str:
    """``SchemeSpec(field=value, ...)`` with only non-default fields."""
    changed = ", ".join(
        f"{field.name}={getattr(spec, field.name)!r}"
        for field in dataclasses.fields(spec)
        if field.init and getattr(spec, field.name) != field.default
    )
    return f"{type(spec).__name__}({changed})"


def work_counts(stats, system=None) -> "dict[str, int]":
    """Per-layer work counts of one finished point.

    ``stats`` covers the measured window, except the structure counters
    the system harvests over the whole run. Engine and DRAM totals need
    the live ``system`` and are absent for sweep points, which come back
    from workers as statistics only.
    """
    structures = stats.structures
    traffic = stats.traffic.dump()
    counts = {
        "cache.private_cache.l1_hits": stats.l1_hits,
        "cache.private_cache.l2_hits": stats.l2_hits,
        "cache.llc.tag_lookups": structures.get("llc_tag_lookups", 0),
        "cache.llc.fills": structures.get("llc_fills", 0),
        "cache.llc.misses": stats.llc_misses,
        "coherence.transactions": stats.llc_transactions,
        "coherence.upgrades": stats.upgrades,
        "coherence.invalidations": stats.invalidations,
        "coherence.back_invalidations": stats.back_invalidations,
        "coherence.three_hop": stats.three_hop,
        "coherence.lengthened": stats.lengthened,
        "core.tiny_lookups": structures.get("tiny_lookups", 0),
        "core.tiny_hits": structures.get("tiny_hits", 0),
        "core.tiny_allocations": structures.get("tiny_allocations", 0),
        "core.tiny_declined": structures.get("tiny_declined", 0),
        "core.spills": stats.spills,
        "directory.lookups": structures.get("dir_lookups", 0),
        "directory.hits": structures.get("dir_hits", 0),
        "directory.evictions": structures.get("dir_evictions", 0),
        "interconnect.traffic.messages": sum(traffic["messages"].values()),
        "interconnect.traffic.bytes": sum(traffic["bytes"].values()),
        "sim.stats.cycles": stats.cycles,
    }
    if system is not None:
        counts["sim.engine.accesses"] = system.access_index
        counts["memory.dram_accesses"] = system.dram.accesses
        counts["memory.row_hits"] = system.dram.row_hits
    return counts


def _error(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}"


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (workers)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _profile(app: str):
    if app == "micro_private_hit":
        # The hot-path microbenchmark's profile, imported, not copied.
        sys.path.insert(0, str(ROOT / "benchmarks"))
        from bench_micro_hotpath import MICRO_PRIVATE_HIT

        return MICRO_PRIVATE_HIT
    return app


def simulate_pass(
    workload: Workload,
    seed: int,
    traced: bool,
    spawned_at: float,
    calib: float,
    accesses: "int | None" = None,
) -> dict:
    """Generate each trace, then run it under each figure scheme.

    The phases are the set-up (up to the first point's ``System``), then
    each point: its ``System`` (``build_s``, absent for the first point)
    and its ``run_trace`` (``run_s``). ``wall_s`` is their sum.
    ``accesses`` overrides the workload's trace length (self-tests only).
    """
    from repro.analysis.runner import RunScale
    from repro.sim import engine
    from repro.sim.system import System
    from repro.workloads import generator

    from spans import LayerTracer, unpatched

    clock = time.perf_counter
    scale = dataclasses.replace(RunScale.quick(), seed=seed)
    schemes = figure_schemes(scale, workload.schemes)
    tracer = LayerTracer() if traced else None

    def traced_scope():
        return tracer if tracer is not None else contextlib.nullcontext()

    generator.clear_trace_cache()
    started = clock()
    traces = {}
    with traced_scope():
        for app in workload.apps:
            traces[app] = generator.generate_streams(
                _profile(app),
                scale.make_config(schemes[0]),
                accesses or workload.accesses,
                seed=seed,
            )
    generate_s = clock() - started
    record = {
        "generate_s": generate_s,
        "generated_accesses": sum(
            len(stream) for streams in traces.values() for stream in streams
        ),
        "points": [],
    }
    finished = []
    with HostClock(calib) as host:

        def end_setup() -> None:
            setup_s = clock() - spawned_at
            factor = host.end_phase()
            record["setup_s"] = setup_s * factor
            record["generate_s"] *= factor

        for app, streams in traces.items():
            for spec in schemes:
                point = {"label": f"{app}/{spec.name}", "family": spec.name}
                record["points"].append(point)
                try:
                    started = clock()
                    system = System(scale.make_config(spec))
                    if "setup_s" in record:
                        point["build_s"] = clock() - started
                    else:
                        end_setup()
                    started = clock()
                    with traced_scope():
                        stats = engine.run_trace(system, streams)
                    point["run_s"] = clock() - started
                    point["accesses"] = system.access_index
                    point["digest"] = digest(stats)
                    point["counts"] = work_counts(stats, system)
                    finished.append((point, system, stats, streams))
                except Exception as err:  # noqa: BLE001 - a failed point is data
                    point["error"] = _error(err)
                factor = host.end_phase()
                for key in ("build_s", "run_s"):
                    if key in point:
                        point[key] *= factor
        if "setup_s" not in record:
            end_setup()
    record["wall_s"] = record["setup_s"] + sum(
        point.get("build_s", 0.0) + point.get("run_s", 0.0) for point in record["points"]
    )
    record["speed"] = statistics.median(host.factors)
    # Correctness checks that hold at any seed, outside the timed spans.
    for point, system, stats, streams in finished:
        total = sum(len(stream) for stream in streams)
        measured = total - int(total * 0.4)
        try:
            if system.access_index != total or stats.accesses != measured:
                raise AssertionError(
                    f"engine ran {system.access_index} of {total} accesses, "
                    f"measured {stats.accesses} (expected {measured})"
                )
            system.check_invariants()
        except Exception as err:  # noqa: BLE001 - a failed point is data
            point["error"] = _error(err)
    if tracer is not None:
        record["layers"] = tracer.snapshot()
        record["unpatched"] = unpatched()
    return record


def sweep_pass(apps: "tuple[str, ...]", seed: int, spawned_at: float, calib: float) -> dict:
    """Plan, sweep and render the figure the way the figure CLI does,
    into a fresh, empty result cache.

    The CLI has no seed flag, so the seed enters through the run scale;
    at the default seed the scale is ``RunScale.quick()`` and the table
    equals the output of ``python -m repro fig13 --scale quick --jobs 2
    --apps barnes TPC-C ocean_cp``. The phases are the set-up (import
    and planning) and the sweep with its rendering (``sweep_s``);
    ``wall_s`` is their sum.
    """
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        return _sweep(list(apps), seed, spawned_at, calib)


def _sweep(apps: "list[str]", seed: int, spawned_at: float, calib: float) -> dict:
    from repro.__main__ import FIGURES
    from repro.analysis.runner import HarnessPolicy, RunScale, harness
    from repro.parallel import (
        SweepJournal,
        collect_points,
        dedupe_points,
        pending_points,
        run_sweep,
    )

    clock = time.perf_counter
    scale = dataclasses.replace(RunScale.quick(), seed=seed)
    policy = HarnessPolicy()
    with HostClock(calib, helpers=SWEEP_JOBS) as host:
        with harness(policy):
            started = clock()
            fn, extra = FIGURES[SWEEP_FIGURE]
            points = pending_points(
                dedupe_points(collect_points(fn, *extra, scale, apps=apps))
            )
            setup_end = clock()
            setup_factor = host.end_phase()
            # The sweep keeps SWEEP_JOBS cores busy, so it is scaled by
            # the host's speed with that many cores busy.
            busy_before = host.calibrate(busy=SWEEP_JOBS)
            sweep_start = clock()
            report = run_sweep(
                points, jobs=SWEEP_JOBS, policy=policy, journal=SweepJournal.default()
            )
            swept = clock()
            table = fn(*extra, scale, apps=apps).render()
            wall_end = clock()
        busy_after = host.calibrate(busy=SWEEP_JOBS)
    sweep_factor = 2 * REFERENCE_CALIB_S / (busy_before + busy_after)
    record = {
        "setup_s": (setup_end - spawned_at) * setup_factor,
        "sweep_s": (wall_end - sweep_start) * sweep_factor,
        "plan_s": (setup_end - started) * setup_factor,
        "render_s": (wall_end - swept) * sweep_factor,
        "speed": sweep_factor,
        "table": table,
        "points": [],
    }
    record["wall_s"] = record["setup_s"] + record["sweep_s"]
    summary = report.summary()
    record["sweep"] = {
        "points": summary.points,
        "point_s": summary.cpu_s * sweep_factor,
        "speedup": summary.speedup,
        "slowest_point_s": (summary.slowest.wall_s if summary.slowest else 0.0) * sweep_factor,
    }
    failures = {(f.app, f.scheme): f.error for f in report.failures}
    for point, result, profile in zip(report.points, report.results, report.profiles):
        entry = {
            "label": f"{point.app}/{spec_label(point.scheme)}",
            "family": point.scheme_name,
            "accesses": point.scale.total_accesses,
            "run_s": profile.wall_s * sweep_factor,
        }
        if result is None or result.meta.get("failed") or profile.cache_hit:
            entry["error"] = failures.get(
                (point.app, point.scheme_name), "point was not computed"
            )
        else:
            entry["digest"] = digest(result.stats)
            entry["counts"] = work_counts(result.stats)
        record["points"].append(entry)
    if policy.failures:
        record["table_error"] = "; ".join(str(f) for f in policy.failures)
    return record


def run_pass(
    workload: Workload, seed: int, traced: bool, spawned_at: float, calib: float
) -> dict:
    """One pass of ``workload``; the record ``run.py`` aggregates."""
    if workload.sweep:
        record = sweep_pass(workload.apps, seed, spawned_at, calib)
    else:
        record = simulate_pass(workload, seed, traced, spawned_at, calib)
    record.update(
        workload=workload.name,
        seed=seed,
        traced=traced,
        peak_rss_mb=_peak_rss_mb(),
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured pass")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--calib", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if not WORKLOADS[args.workload].sweep:
        # One CPU for the pass and, by inheritance, its calibration
        # helper, so that the helper times the CPU the simulator runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_pass(
        WORKLOADS[args.workload], args.seed, args.traced, args.spawned_at, args.calib
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
