#!/usr/bin/env python3
"""The simulator's benchmark: host throughput, set-up, memory, and
where host time goes, per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload shared --seed 1 --seconds 40 --trace 0

A run spawns fresh processes, one measured pass each (see suite.py),
for about ``--seconds``, then prints one JSON object as the last line
of standard output: ``correct``, ``attempted`` and ``failed``
(simulated points, plus the rendered tables of the sweep) and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json over all the passes; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics. Progress and the
identity checks go to standard error.

Host times are scaled to the reference host speed by calibrations
between the phases of each pass (``suite.HostClock``). ``setup_s`` is
the median over the passes; ``wall_s`` and ``sim_accesses_per_s`` take
each phase (each point) at its median over the passes. A least time
would be picked from the passes whose calibration read slowest, so it
spreads more than the median does.

Simulated results are deterministic, so they are checked, not timed:
every point's ``SimStats.dump()`` digest must agree across passes and
between traced and untraced passes, and at the committed seed it must
equal expected.json. ``--write-expected`` records the observed digests
instead, for a deliberate model change.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_NAMES  # noqa: E402
from suite import ALL_SCHEMES, DEFAULT_SEED, WORK_DIR, WORKLOADS, calibrate  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
#: Least passes per run, however short ``--seconds``; the identity
#: checks compare passes, so a run needs more than one.
MIN_PASSES = 3
#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 90


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter; return its record.

    The simulator's ``REPRO_*`` knobs are cleared so that no setting of
    the caller's changes what is measured.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    calib = calibrate()
    command = [
        sys.executable,
        str(HERE / "suite.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--calib", repr(calib),
        "--spawned-at", repr(time.perf_counter()),
    ]
    if traced:
        command.append("--traced")
    # Its own process group, so that a pass cut short takes its sweep
    # workers and calibration processes with it.
    child = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"pass exceeded {PASS_TIMEOUT_S} s", "traced": traced}
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crash": f"exit {child.returncode}: {tail[0]}", "traced": traced}
    return json.loads(lines[-1])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Verdict:
    """Failed points and inconsistencies found while checking passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def check_passes(workload: str, seed: int, passes: "list[dict]", verdict: Verdict) -> dict:
    """Count and check every point (and sweep table) of every pass.

    Returns the results observed per label: a point's digest, or the
    rendered text under ``"table"``.
    """
    observed: "dict[str, list[str]]" = {}
    for record in passes:
        if "crash" in record:
            verdict.attempted += 1
            verdict.fail(f"pass crashed: {record['crash']}")
            continue
        for point in record["points"]:
            verdict.attempted += 1
            if "error" in point:
                verdict.fail(f"{point['label']}: {point['error']}")
            else:
                observed.setdefault(point["label"], []).append(point["digest"])
        if "table" in record:
            verdict.attempted += 1
            if "table_error" in record:
                verdict.fail(f"table: {record['table_error']}")
            else:
                observed.setdefault("table", []).append(record["table"])
        if record["traced"] and record.get("unpatched") is False:
            verdict.fail("a wrapper survived the traced pass", 0)
    expected = {}
    if seed == DEFAULT_SEED and EXPECTED_PATH.exists():
        expected = json.loads(EXPECTED_PATH.read_text()).get(workload, {})
    for label, values in sorted(observed.items()):
        if label == "table":
            want = "\n".join(expected.get("table", ()))
        else:
            want = expected.get("points", {}).get(label)
        if len(set(values)) > 1:
            verdict.fail(f"{label}: results differ between passes", len(values))
        elif seed == DEFAULT_SEED and values[0] != want:
            verdict.fail(f"{label}: differs from expected.json", len(values))
    return {label: values[0] for label, values in observed.items() if len(set(values)) == 1}


def pass_counts(record: dict) -> "dict[str, int]":
    """Work counts of one pass, summed over its points."""
    totals: "dict[str, int]" = {}
    for point in record["points"]:
        for name, value in point.get("counts", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def rate(points, family: "str | None" = None) -> float:
    """Accesses per host second over the (family's) finished points."""
    chosen = [
        p for p in points
        if "error" not in p and (family is None or p["family"] == family)
    ]
    return ratio(sum(p["accesses"] for p in chosen), sum(p["run_s"] for p in chosen))


def median_points(records: "list[dict]") -> "list[dict]":
    """Each finished point once, with its median times over the passes."""
    seen: "dict[str, list[dict]]" = {}
    for record in records:
        for point in record["points"]:
            if "error" not in point:
                seen.setdefault(point["label"], []).append(point)
    return [
        {
            **points[0],
            "run_s": median(p["run_s"] for p in points),
            "build_s": median(p.get("build_s", 0.0) for p in points),
        }
        for points in seen.values()
    ]


def median_wall(records: "list[dict]") -> float:
    """Seconds of one pass, with each of its phases at its median.

    A simulated pass is its set-up, then each point (see
    ``suite.simulate_pass``); each phase takes its median time over the
    run's passes. A sweep pass runs its points in parallel workers and
    is not split: it takes the median whole pass.
    """
    if "table" in records[0]:
        return median(r["wall_s"] for r in records)
    return median(r["setup_s"] for r in records) + sum(
        p["build_s"] + p["run_s"] for p in median_points(records)
    )


def end_to_end(untraced: "list[dict]") -> "dict[str, tuple[float, str]]":
    return {
        "sim_accesses_per_s": (rate(median_points(untraced)), "1/s"),
        "wall_s": (median_wall(untraced), "s"),
        "setup_s": (median(r["setup_s"] for r in untraced), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def work_time(record: dict) -> float:
    """Host seconds of a pass's measured work (tracing overhead base)."""
    if "table" in record:
        return record["wall_s"]
    return record["generate_s"] + sum(p.get("run_s", 0.0) for p in record["points"])


def per_layer(
    untraced: "list[dict]", traced: "list[dict]", calib: "list[float]", verdict: Verdict
) -> "dict[str, tuple[float, str]]":
    metrics: "dict[str, tuple[float, str]]" = {}
    calls = {tuple(r["layers"][n]["calls"] for n in LAYER_NAMES) for r in traced if "layers" in r}
    if len(calls) > 1:
        verdict.fail("per-layer call counts differ between traced passes", 0)
    for name in LAYER_NAMES:
        layers = [r["layers"][name] for r in traced if "layers" in r]
        shares = [
            ratio(r["layers"][name]["self_s"], r["layers"]["sim.engine"]["span_s"])
            for r in traced if "layers" in r
        ]
        metrics[f"{name}.calls"] = (layers[0]["calls"] if layers else 0, "count")
        metrics[f"{name}.self_s"] = (median(layer["self_s"] for layer in layers), "s")
        metrics[f"{name}.share"] = (median(shares), "ratio")

    points = median_points(untraced)
    for family in ALL_SCHEMES:
        metrics[f"sim_accesses_per_s.{family}"] = (rate(points, family), "1/s")

    counts = [pass_counts(r) for r in untraced]
    if any(c != counts[0] for c in counts):
        verdict.fail("work counts differ between passes", 0)
    first = counts[0] if counts else {}

    def get(name: str) -> int:
        return first.get(name, 0)

    simulated = [r for r in untraced if "generate_s" in r]
    metrics.update({
        "workloads.generate_s": (median(r["generate_s"] for r in simulated), "s"),
        "workloads.accesses": (simulated[0]["generated_accesses"] if simulated else 0, "count"),
        "sim.engine.accesses": (get("sim.engine.accesses"), "count"),
        "cache.private_cache.l1_hits": (get("cache.private_cache.l1_hits"), "count"),
        "cache.private_cache.l2_hits": (get("cache.private_cache.l2_hits"), "count"),
        "cache.llc.tag_lookups": (get("cache.llc.tag_lookups"), "count"),
        "cache.llc.fills": (get("cache.llc.fills"), "count"),
        "cache.llc.miss_rate": (ratio(get("cache.llc.misses"), get("coherence.transactions")), "ratio"),
        "coherence.transactions": (get("coherence.transactions"), "count"),
        "coherence.upgrades": (get("coherence.upgrades"), "count"),
        "coherence.invalidations": (get("coherence.invalidations"), "count"),
        "coherence.back_invalidations": (get("coherence.back_invalidations"), "count"),
        "coherence.three_hop_frac": (ratio(get("coherence.three_hop"), get("coherence.transactions")), "ratio"),
        "coherence.lengthened_frac": (ratio(get("coherence.lengthened"), get("coherence.transactions")), "ratio"),
        "core.tiny_hit_ratio": (ratio(get("core.tiny_hits"), get("core.tiny_lookups")), "ratio"),
        "core.tiny_allocations": (get("core.tiny_allocations"), "count"),
        "core.tiny_declined": (get("core.tiny_declined"), "count"),
        "core.spills": (get("core.spills"), "count"),
        "directory.hit_ratio": (ratio(get("directory.hits"), get("directory.lookups")), "ratio"),
        "directory.evictions": (get("directory.evictions"), "count"),
        "interconnect.traffic.messages": (get("interconnect.traffic.messages"), "count"),
        "interconnect.traffic.bytes": (get("interconnect.traffic.bytes"), "B"),
        "memory.dram_accesses": (get("memory.dram_accesses"), "count"),
        "memory.row_hit_ratio": (ratio(get("memory.row_hits"), get("memory.dram_accesses")), "ratio"),
        "sim.stats.cycles": (get("sim.stats.cycles"), "cycles"),
    })

    swept = [r for r in untraced + traced if "sweep" in r]
    metrics.update({
        "parallel.points": (swept[0]["sweep"]["points"] if swept else 0, "count"),
        "parallel.point_s": (median(r["sweep"]["point_s"] for r in swept), "s"),
        "parallel.speedup": (median(r["sweep"]["speedup"] for r in swept), "ratio"),
        "parallel.slowest_point_s": (median(r["sweep"]["slowest_point_s"] for r in swept), "s"),
        "analysis.plan_s": (median(r["plan_s"] for r in swept), "s"),
        "analysis.render_s": (median(r["render_s"] for r in swept), "s"),
        "trace.overhead_ratio": (
            ratio(median(map(work_time, traced)), median(map(work_time, untraced))), "ratio",
        ),
        "host.calib_s": (median(calib), "s"),
    })
    return metrics


def declared(trace: bool) -> "list[dict]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def write_expected(workload: str, digests: dict) -> None:
    table = digests.pop("table", None)
    entry = {"points": dict(sorted(digests.items()))}
    if table is not None:
        entry["table"] = table.split("\n")
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    data[workload] = entry
    EXPECTED_PATH.write_text(json.dumps(dict(sorted(data.items())), indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", action="store_true",
        help=f"record this run's digests in expected.json (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--write-expected needs --seed {DEFAULT_SEED}")

    def log(message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr)

    # Leave through the same clean-up on SIGTERM as on an error, which
    # stops the pass in flight and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Byte-compile first so no pass pays for compilation in its set-up.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    compileall.compile_file(ROOT / "benchmarks" / "bench_micro_hotpath.py", quiet=1)

    passes: "list[dict]" = []
    durations: "list[float]" = []
    calib = [calibrate() for _ in range(3)]
    started = time.perf_counter()
    # Start no pass that would likely end after --seconds, so that a run
    # takes about --seconds whatever its pass length.
    while len(passes) < MIN_PASSES + args.trace or (
        time.perf_counter() - started + median(durations) <= args.seconds
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        spawned = time.perf_counter()
        record = spawn_pass(args.workload, args.seed, traced)
        durations.append(time.perf_counter() - spawned)
        passes.append(record)
        kind = "traced" if traced else "untraced"
        if "crash" in record:
            log(f"pass {len(passes)} ({kind}) crashed: {record['crash']}")
        else:
            log(
                f"pass {len(passes)} ({kind}): setup {record['setup_s']:.2f} s, "
                f"wall {record['wall_s']:.2f} s, rate {rate(record['points']):,.0f}/s "
                f"at host speed {record['speed']:.2f}"
            )
    calib += [calibrate() for _ in range(3)]
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # never created, or another run is still using it

    verdict = Verdict()
    digests = check_passes(args.workload, args.seed, passes, verdict)
    ok = [r for r in passes if "crash" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        for problem in verdict.problems:
            log(f"FAILED {problem}")
        log("no pass finished; nothing to report")
        return 1
    computed = (
        per_layer(untraced, traced, calib, verdict) if args.trace else end_to_end(untraced)
    )
    if args.seed != DEFAULT_SEED:
        log(f"digest check skipped: seed {args.seed} is not the committed seed {DEFAULT_SEED}")
    elif not verdict.problems:
        log("digest check passed")
    for problem in verdict.problems:
        log(f"FAILED {problem}")
    log(f"host calibration kernel {median(calib):.3f} s (min {min(calib):.3f}, max {max(calib):.3f})")
    if args.write_expected:
        write_expected(args.workload, digests)
        log(f"wrote {len(digests)} digest(s) to {EXPECTED_PATH.name}")

    metrics = {}
    for spec in declared(bool(args.trace)):
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} but BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
