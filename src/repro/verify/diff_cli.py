"""Command-line driver: ``python -m repro diff``.

Record durable ``.rtrace`` captures and run them through every
coherence-tracking scheme differentially (see
:mod:`repro.verify.differential`):

* ``--record out.rtrace --app barnes`` generates one seeded trace and
  saves it with full provenance;
* ``--trace FILE`` (or a directory of ``.rtrace`` files, e.g. the
  committed ``tests/corpus/``) replays each trace through the selected
  schemes — fanned through :mod:`repro.parallel` — and checks
  architectural agreement plus pairwise stat tolerances;
* ``--fault kind@after`` seeds a corruption into every scheme's run;
  the expectation inverts and a scheme that *misses* the fault fails
  the diff;
* ``--bisect`` shrinks any divergence to a minimal replayable
  sub-trace under ``--out``; pointing ``--trace`` at such a sub-trace
  replays it under its recorded scheme and fault plan.

Exit status is 0 only when every report is clean (or, under faults,
every scheme detected the corruption).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.argtypes import at_least
from repro.errors import ReproError
from repro.resilience.faults import Fault, FaultKind, FaultPlan
from repro.verify.differential import (
    ALL_SCHEMES,
    DEFAULT_DIFF_AUDIT_INTERVAL,
    DIFF_L1_KB,
    DIFF_L2_KB,
    diff_trace,
)

#: Record-mode defaults: the scenario-corpus scale (tiny but with every
#: structure under pressure; see tools/rebuild_corpus.py).
RECORD_CORES = 8
RECORD_ACCESSES = 3000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro diff",
        description="Cross-scheme differential regression over recorded "
        "traces: record, replay, agree, bisect.",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        action="append",
        help="trace file or directory of .rtrace files to diff "
        "(repeatable)",
    )
    parser.add_argument(
        "--record",
        type=Path,
        metavar="PATH",
        help="record a fresh seeded trace to PATH and exit",
    )
    parser.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme subset (default: all five: "
        + ",".join(ALL_SCHEMES)
        + ")",
    )
    parser.add_argument(
        "--bisect",
        action="store_true",
        help="on divergence, bisect to a minimal replayable sub-trace "
        "under --out",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("diff-reports"),
        help="directory for diff reports and sub-trace reproducers "
        "(default: diff-reports)",
    )
    parser.add_argument(
        "--jobs",
        type=at_least(int, 1),
        default=None,
        help="worker processes for the per-scheme fan-out, at least 1 "
        "(default: auto)",
    )
    parser.add_argument(
        "--fault",
        action="append",
        metavar="KIND[@AFTER]",
        help="seed a fault (e.g. corrupt_directory_entry@40) into every "
        "scheme's run; schemes must then DETECT it (repeatable)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for fault target resolution (default: 0)",
    )
    parser.add_argument(
        "--audit-interval",
        type=at_least(int, 1),
        default=DEFAULT_DIFF_AUDIT_INTERVAL,
        help="accesses between protocol audits in monitored runs, at "
        f"least 1 (default: {DEFAULT_DIFF_AUDIT_INTERVAL})",
    )
    # -- record-mode knobs ------------------------------------------------
    parser.add_argument(
        "--app",
        default="barnes",
        help="workload profile for --record (default: barnes)",
    )
    parser.add_argument(
        "--cores",
        type=at_least(int, 1),
        default=RECORD_CORES,
        help=f"cores for --record, at least 1 (default: {RECORD_CORES})",
    )
    parser.add_argument(
        "--accesses",
        type=at_least(int, 1),
        default=RECORD_ACCESSES,
        help="steady-state accesses for --record, at least 1 "
        f"(default: {RECORD_ACCESSES})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generator seed for --record (default: 0)",
    )
    return parser


def _parse_faults(args) -> "FaultPlan | None":
    if not args.fault:
        return None
    faults = []
    for item in args.fault:
        name, _, position = item.strip().lower().partition("@")
        try:
            kind = FaultKind(name)
        except ValueError:
            raise ReproError(
                f"unknown fault kind {name!r} (choose from "
                f"{', '.join(k.value for k in FaultKind)})"
            ) from None
        try:
            after = int(position) if position else 1
        except ValueError:
            raise ReproError(f"bad fault position {position!r}") from None
        faults.append(Fault(kind, after_access=after))
    return FaultPlan(faults=tuple(faults), seed=args.fault_seed)


def _parse_schemes(args) -> "tuple[str, ...] | None":
    if not args.schemes:
        return None
    names = tuple(
        name.strip() for name in args.schemes.split(",") if name.strip()
    )
    for name in names:
        if name not in ALL_SCHEMES:
            raise ReproError(
                f"unknown scheme {name!r} (choose from "
                f"{', '.join(ALL_SCHEMES)})"
            )
    return names or None


def _record(args) -> int:
    from repro.sim.config import SystemConfig
    from repro.workloads.capture import save_capture
    from repro.workloads.generator import generate_streams
    from repro.workloads.profiles import profile

    app = profile(args.app)
    config = SystemConfig(
        num_cores=args.cores, l1_kb=DIFF_L1_KB, l2_kb=DIFF_L2_KB
    )
    streams = generate_streams(app, config, args.accesses, seed=args.seed)
    save_capture(
        args.record,
        streams,
        profile=app,
        seed=args.seed,
        total_accesses=args.accesses,
        geometry={
            "num_cores": config.num_cores,
            "l1_kb": config.l1_kb,
            "l2_kb": config.l2_kb,
        },
    )
    total = sum(len(stream) for stream in streams)
    print(f"recorded {args.record}: {total} accesses on {args.cores} cores")
    return 0


def _collect_traces(entries: "list[Path]") -> "list[Path]":
    traces: "list[Path]" = []
    for entry in entries:
        if entry.is_dir():
            found = sorted(entry.glob("*.rtrace"))
            if not found:
                raise ReproError(f"no .rtrace files under {entry}")
            traces.extend(found)
        elif entry.exists():
            traces.append(entry)
        else:
            raise ReproError(f"trace {entry} does not exist")
    return traces


def _print_report(report: dict) -> None:
    trace = report["trace"]
    for name, result in sorted(report["schemes"].items()):
        if result["ok"]:
            line = f"clean ({result['processed']} accesses)"
        else:
            first = (result["violation"] or "").splitlines()[0][:110]
            line = f"DIVERGED at access {result['processed']}: {first}"
            if result.get("reproducer"):
                line += (
                    f" [reproducer: {result['reproducer_accesses']} "
                    f"accesses -> {result['reproducer']}]"
                )
        print(f"  {name}: {line}")
    for failure in report["failures"]:
        print(f"  {failure}")
    status = "OK" if report["ok"] else "FAIL"
    print(f"diff {trace}: {status}")


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.record is not None:
            return _record(args)
        if not args.trace:
            print(
                "python -m repro diff: need --trace (file or directory) "
                "or --record",
                file=sys.stderr,
            )
            return 2
        plan = _parse_faults(args)
        schemes = _parse_schemes(args)
        traces = _collect_traces(args.trace)
        failures = 0
        for trace in traces:
            report = diff_trace(
                trace,
                schemes,
                fault_plan=plan,
                bisect=args.bisect,
                out_dir=args.out,
                jobs=args.jobs,
                audit_interval=args.audit_interval,
            )
            _print_report(report)
            if not report["ok"]:
                failures += 1
        if failures:
            print(f"diff: {failures} of {len(traces)} trace(s) FAILED")
            return 1
        print(f"diff: OK ({len(traces)} trace(s))")
        return 0
    except ReproError as err:
        print(f"python -m repro diff: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
