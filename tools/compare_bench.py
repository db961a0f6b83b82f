#!/usr/bin/env python3
"""Compare ``BENCH_*.json`` perf points against committed baselines.

The CI perf-smoke job runs ``benchmarks/bench_micro_hotpath.py`` into a
fresh directory and then gates the result with::

    python tools/compare_bench.py benchmarks/baselines .repro_bench --tolerance 0.15

For every baseline point, the candidate directory must contain a point
of the same name, and each metric listed in the point's ``gate`` block
must satisfy two checks:

* **floor** — an absolute requirement carried in the point itself (e.g.
  the ``speedup`` floor of 1.5 of the engine over the reference loop,
  which encodes the acceptance criterion independent of any baseline);
* **tolerance** — no regression beyond ``tolerance`` relative to the
  baseline value (``candidate >= baseline * (1 - tolerance)`` for
  higher-is-better metrics, the mirror image for lower-is-better).
  Points whose gate spec sets ``floor_only`` skip this check — used for
  ratios whose denominator is sub-µs noise (the trace-cache hit) or
  whose run-to-run variance exceeds any meaningful tolerance.

Gated metrics are wall-clock *ratios*, so the comparison is meaningful
across machines; absolute seconds in the payloads are informational.
Candidate points with no baseline are reported but never fail the gate
(new benchmarks land before their first baseline is committed).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def load_points(directory: str) -> "dict[str, dict]":
    """Load every ``BENCH_*.json`` in ``directory``, keyed by name."""
    points = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as handle:
            payload = json.load(handle)
        name = payload.get("name") or os.path.basename(path)
        points[name] = payload
    return points


def compare_metric(
    name: str,
    metric: str,
    spec: dict,
    baseline_value: "float | None",
    candidate_value: "float | None",
    tolerance: float,
) -> "list[str]":
    """Check one gated metric; returns a list of failure messages."""
    failures = []
    if candidate_value is None:
        failures.append(f"{name}: gated metric {metric!r} missing from candidate")
        return failures
    higher = spec.get("direction", "higher") == "higher"
    floor = spec.get("floor")
    if floor is not None:
        if higher and candidate_value < floor:
            failures.append(
                f"{name}: {metric}={candidate_value:.4g} below floor {floor:.4g}"
            )
        elif not higher and candidate_value > floor:
            failures.append(
                f"{name}: {metric}={candidate_value:.4g} above ceiling {floor:.4g}"
            )
    if baseline_value is not None and not spec.get("floor_only"):
        if higher:
            limit = baseline_value * (1.0 - tolerance)
            if candidate_value < limit:
                failures.append(
                    f"{name}: {metric}={candidate_value:.4g} regressed more "
                    f"than {tolerance:.0%} below baseline "
                    f"{baseline_value:.4g} (limit {limit:.4g})"
                )
        else:
            limit = baseline_value * (1.0 + tolerance)
            if candidate_value > limit:
                failures.append(
                    f"{name}: {metric}={candidate_value:.4g} regressed more "
                    f"than {tolerance:.0%} above baseline "
                    f"{baseline_value:.4g} (limit {limit:.4g})"
                )
    return failures


def compare(
    baseline_dir: str, candidate_dir: str, tolerance: float
) -> "tuple[list[str], list[str]]":
    """Compare two BENCH directories; returns (report_lines, failures)."""
    baselines = load_points(baseline_dir)
    candidates = load_points(candidate_dir)
    report: "list[str]" = []
    failures: "list[str]" = []
    for name, baseline in sorted(baselines.items()):
        candidate = candidates.get(name)
        if candidate is None:
            failures.append(f"{name}: present in baselines but not produced")
            continue
        gate = candidate.get("gate") or baseline.get("gate") or {}
        base_metrics = baseline.get("metrics") or {}
        cand_metrics = candidate.get("metrics") or {}
        for metric, spec in sorted(gate.items()):
            baseline_value = base_metrics.get(metric)
            candidate_value = cand_metrics.get(metric)
            failures.extend(
                compare_metric(
                    name, metric, spec, baseline_value, candidate_value, tolerance
                )
            )
            if candidate_value is not None:
                delta = ""
                if baseline_value:
                    delta = f" (baseline {baseline_value:.4g})"
                report.append(f"{name}: {metric}={candidate_value:.4g}{delta}")
    for name in sorted(set(candidates) - set(baselines)):
        report.append(f"{name}: new point, no baseline yet (not gated)")
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_dir", help="committed BENCH_*.json baselines")
    parser.add_argument("candidate_dir", help="freshly produced BENCH_*.json points")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative regression against baseline (default 0.15)",
    )
    args = parser.parse_args(argv)
    report, failures = compare(
        args.baseline_dir, args.candidate_dir, args.tolerance
    )
    for line in report:
        print(line)
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print(f"compare_bench: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("compare_bench: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
