"""Command-line driver: ``python -m repro verify``.

Runs the litmus library and/or the random-walk fuzzer against the
selected schemes, optionally with fault-mutated runs that must be
*detected* (the injected corruption caught by the auditor or oracle and
shrunk to a minimized reproducer). Exit status is 0 only when every
clean run is clean, every mutated run is detected, and — if a floor is
given — transition coverage clears it.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.argtypes import at_least
from repro.verify.coverage import (
    CoverageMap,
    coverage_fraction,
    render_coverage_table,
)
from repro.verify.fuzzer import fault_plan_for, fuzz_task
from repro.verify.harness import DEFAULT_VERIFY_AUDIT_INTERVAL
from repro.verify.litmus import run_litmus
from repro.verify.reproducer import (
    SCHEME_SPECS,
    default_verify_spec,
    load_reproducer,
    replay,
    reproducer_dict,
    save_reproducer,
)

#: Geometry for fuzz runs (matches the quick analysis scale).
FUZZ_CORES = 16
FUZZ_L1_KB = 8
FUZZ_L2_KB = 32


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Protocol conformance runner: litmus tests, fuzzing, "
        "fault-detection checks, and transition coverage.",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        choices=sorted(SCHEME_SPECS),
        help="scheme(s) to verify (repeatable; default: all five)",
    )
    parser.add_argument(
        "--litmus",
        action="store_true",
        help="run only the curated litmus library",
    )
    parser.add_argument(
        "--fuzz",
        action="store_true",
        help="run only the random-walk fuzzer",
    )
    parser.add_argument(
        "--steps",
        type=at_least(int, 1),
        default=2000,
        help="fuzz schedule length per run, at least 1 (default: 2000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="base seed for fuzz schedules and fault plans (default: 7)",
    )
    parser.add_argument(
        "--faults",
        type=at_least(int, 0),
        default=0,
        help="fault-mutated fuzz runs per scheme, at least 0; each "
        "injected fault must be detected and shrunk (default: 0)",
    )
    parser.add_argument(
        "--jobs",
        type=at_least(int, 1),
        default=None,
        help="worker processes for fuzz runs, at least 1 (default: auto)",
    )
    parser.add_argument(
        "--audit-interval",
        type=at_least(int, 1),
        default=DEFAULT_VERIFY_AUDIT_INTERVAL,
        help="steps between full protocol audits during fuzzing, at "
        f"least 1 (default: {DEFAULT_VERIFY_AUDIT_INTERVAL})",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(".repro_verify"),
        help="directory for minimized reproducer files "
        "(default: .repro_verify)",
    )
    parser.add_argument(
        "--coverage-report",
        action="store_true",
        help="print the per-scheme transition coverage table",
    )
    parser.add_argument(
        "--min-coverage",
        type=at_least(float, 0, at_most=1),
        default=None,
        help="fail unless every scheme covers at least this fraction of "
        "its known transitions (0..1)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="replay a minimized reproducer JSON file and exit "
        "(0 if the violation still fires)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="write a structured JSONL trace of every verify schedule "
        "(same as REPRO_TRACE=jsonl; see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="trace destination (default trace.jsonl; same as "
        "REPRO_TRACE_OUT=PATH; implies --trace)",
    )
    return parser


def _selected_schemes(args) -> "dict[str, object]":
    names = args.scheme or sorted(SCHEME_SPECS)
    return {name: default_verify_spec(name) for name in names}


def _run_replay(path: Path) -> int:
    payload = load_reproducer(path)
    result = replay(payload)
    expected = payload.get("violation", "")
    if result.failed:
        print(f"reproduced: {result.violation}")
        if expected and result.violation != expected:
            print(f"  (original run reported: {expected})")
        return 0
    print("did NOT reproduce: the schedule ran clean")
    return 1


def _run_litmus_phase(schemes, coverage) -> int:
    failures = 0
    outcomes = run_litmus(schemes, coverage=coverage)
    by_scheme: "Counter[str]" = Counter()
    for outcome in outcomes:
        by_scheme[outcome.scheme] += 1
        if not outcome.passed:
            failures += 1
            print(
                f"LITMUS FAIL {outcome.scheme}/{outcome.test}: "
                f"{outcome.violation}"
            )
    for scheme in sorted(by_scheme):
        print(f"litmus {scheme}: {by_scheme[scheme]} tests")
    print(f"litmus: {len(outcomes)} runs, {failures} failures")
    return failures


def _fuzz_payloads(args, schemes) -> "list[dict]":
    payloads = []
    for name, spec in schemes.items():
        payloads.append(
            {
                "scheme": name,
                "spec": spec,
                "steps": args.steps,
                "seed": args.seed,
                "num_cores": FUZZ_CORES,
                "l1_kb": FUZZ_L1_KB,
                "l2_kb": FUZZ_L2_KB,
                "audit_interval": args.audit_interval,
                "plan": None,
            }
        )
        for index in range(args.faults):
            payloads.append(
                {
                    "scheme": name,
                    "spec": spec,
                    "steps": args.steps,
                    "seed": args.seed + 1 + index,
                    "num_cores": FUZZ_CORES,
                    "l1_kb": FUZZ_L1_KB,
                    "l2_kb": FUZZ_L2_KB,
                    "audit_interval": args.audit_interval,
                    "plan": fault_plan_for(name, args.seed, index),
                }
            )
    return payloads


def _run_fuzz_phase(args, schemes, coverage) -> int:
    from repro.parallel import run_tasks

    payloads = _fuzz_payloads(args, schemes)
    results = run_tasks(fuzz_task, payloads, jobs=args.jobs)
    failures = 0
    for payload, result in zip(payloads, results):
        scheme = result["scheme"]
        mutated = payload["plan"] is not None
        for label, count in result["coverage_counts"].items():
            coverage.setdefault(scheme, CoverageMap()).counts[label] += count
        if mutated:
            if result["violation"] is None:
                failures += 1
                print(
                    f"FAULT MISSED {scheme} seed={result['seed']}: injected "
                    f"{result['injected'] or payload['plan'].faults} ran clean"
                )
                continue
            size = len(result["reproducer"])
            out = save_reproducer(
                args.out / f"{scheme}-fault-seed{result['seed']}.json",
                reproducer_dict_from_task(payload, result),
            )
            print(
                f"fault detected {scheme} seed={result['seed']}: "
                f"{result['violation'].splitlines()[0][:100]} "
                f"(reproducer: {size} steps -> {out})"
            )
        elif result["violation"] is not None:
            failures += 1
            out = save_reproducer(
                args.out / f"{scheme}-seed{result['seed']}.json",
                reproducer_dict_from_task(payload, result),
            )
            print(
                f"FUZZ FAIL {scheme} seed={result['seed']}: "
                f"{result['violation']} (reproducer: {out})"
            )
        else:
            print(
                f"fuzz clean {scheme} seed={result['seed']}: "
                f"{result['steps']} steps"
            )
    return failures


def reproducer_dict_from_task(payload: dict, result: dict) -> dict:
    from repro.verify.steps import step_from_dict

    return reproducer_dict(
        result["scheme"],
        payload["spec"],
        [step_from_dict(entry) for entry in result["reproducer"]],
        result["violation"] or "",
        seed=result["seed"],
        num_cores=payload["num_cores"],
        l1_kb=payload["l1_kb"],
        l2_kb=payload["l2_kb"],
        audit_interval=payload["audit_interval"],
    )


def _coverage_gate(args, coverage) -> int:
    per_scheme = {
        scheme: cmap.covered() for scheme, cmap in sorted(coverage.items())
    }
    if args.coverage_report and per_scheme:
        print(render_coverage_table(per_scheme))
    if args.min_coverage is None:
        return 0
    failures = 0
    for scheme, covered in per_scheme.items():
        fraction = coverage_fraction(scheme, covered)
        if fraction < args.min_coverage:
            failures += 1
            print(
                f"COVERAGE LOW {scheme}: {fraction:.0%} < "
                f"{args.min_coverage:.0%} floor"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    if args.trace or args.trace_out:
        # Via the environment so fuzz pool workers trace too; setdefault
        # keeps an explicit REPRO_TRACE=ring (etc.) in force.
        os.environ.setdefault("REPRO_TRACE", "jsonl")
    if args.trace_out:
        os.environ["REPRO_TRACE_OUT"] = args.trace_out
    if args.replay is not None:
        return _run_replay(args.replay)
    schemes = _selected_schemes(args)
    run_litmus_phase = args.litmus or not args.fuzz
    run_fuzz_phase = args.fuzz or not args.litmus
    coverage: "dict[str, CoverageMap]" = {
        name: CoverageMap() for name in schemes
    }
    failures = 0
    if run_litmus_phase:
        failures += _run_litmus_phase(schemes, coverage)
    if run_fuzz_phase:
        failures += _run_fuzz_phase(args, schemes, coverage)
    failures += _coverage_gate(args, coverage)
    if failures:
        print(f"verify: {failures} failure(s)")
        return 1
    print("verify: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
