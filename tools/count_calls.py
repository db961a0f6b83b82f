#!/usr/bin/env python3
"""Python calls and bytecodes per simulated access, scheme by scheme.

Interpreter overhead is what the simulator's host time is made of, and
how many Python calls and bytecodes a run executes does not depend on
the host or its load: unlike a timing, the count of one version of the
program repeats exactly. This tool counts both around ``run_trace`` for
every point of a perfbench workload, built as perfbench/suite.py builds
it, and prints them per access, per scheme and over all points::

    python tools/count_calls.py --workload shared [--seed N]

With ``--generate`` it counts the workload's trace generation instead
(``generate_streams`` with a cold trace cache, as perfbench times it)
and prints them per generated access, initialization pass included,
per application and over all traces::

    python tools/count_calls.py --generate --workload private-hit

Calls are ``sys.setprofile`` "call" events (Python frames; a generator
resume counts as a call). Bytecodes are ``sys.settrace`` opcode events
of a second run of each point, which is about 30 times slower than an
untraced run. tests/test_call_budget.py holds each scheme's calls per
access to a budget with :func:`count_calls`, and generation's bytecodes
per generated access with :func:`count_bytecodes`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count_calls(run) -> int:
    """Python calls made while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def count_bytecodes(run) -> int:
    """Bytecodes executed in Python frames while ``run()`` runs."""
    opcodes = 0

    def trace(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return opcodes


def _suite():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import suite

    return suite


def count_workload(name: str, seed: int) -> "list[dict]":
    """One row per point of workload ``name``: its label, scheme,
    accesses, calls and bytecodes."""
    from repro.analysis.runner import RunScale
    from repro.sim.engine import run_trace
    from repro.sim.system import System
    from repro.workloads.generator import generate_streams

    suite = _suite()
    workload = suite.WORKLOADS[name]
    scale = dataclasses.replace(RunScale.quick(), seed=seed)
    schemes = suite.figure_schemes(scale, workload.schemes)
    rows = []
    for app in workload.apps:
        streams = generate_streams(
            suite._profile(app), scale.make_config(schemes[0]), workload.accesses,
            seed=seed,
        )
        for spec in schemes:
            row = {"label": f"{app}/{spec.name}", "scheme": spec.name}
            for counter in (count_calls, count_bytecodes):
                system = System(scale.make_config(spec))
                row[counter.__name__[len("count_"):]] = counter(
                    lambda: run_trace(system, streams)
                )
                row["accesses"] = system.access_index
            rows.append(row)
    return rows


def count_generation(name: str, seed: int) -> "list[dict]":
    """One row per trace of workload ``name``: its application, the
    accesses generated, and the calls and bytecodes generating it took."""
    from repro.analysis.runner import RunScale
    from repro.workloads.generator import clear_trace_cache, generate_streams

    suite = _suite()
    workload = suite.WORKLOADS[name]
    scale = dataclasses.replace(RunScale.quick(), seed=seed)
    config = scale.make_config(suite.figure_schemes(scale, workload.schemes)[0])
    rows = []
    for app in workload.apps:
        row = {"label": app}
        for counter in (count_calls, count_bytecodes):
            clear_trace_cache()
            streams = []
            row[counter.__name__[len("count_"):]] = counter(
                lambda: streams.extend(generate_streams(
                    suite._profile(app), config, workload.accesses, seed=seed
                ))
            )
            row["accesses"] = sum(len(stream) for stream in streams)
        rows.append(row)
    return rows


def _per_access(rows, key: str) -> str:
    return f"{sum(row[key] for row in rows) / sum(row['accesses'] for row in rows):.2f}"


def main(argv=None) -> int:
    suite = _suite()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        default="shared",
        choices=sorted(name for name, w in suite.WORKLOADS.items() if not w.sweep),
    )
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument(
        "--generate",
        action="store_true",
        help="count the workload's trace generation, not its runs",
    )
    args = parser.parse_args(argv)
    if args.generate:
        rows = count_generation(args.workload, args.seed)
        column, what = "app", "per generated access"
        groups = [(row["label"], [row]) for row in rows]
    else:
        rows = count_workload(args.workload, args.seed)
        column, what = "scheme", "per access"
        schemes = list(dict.fromkeys(row["scheme"] for row in rows))
        groups = [(s, [r for r in rows if r["scheme"] == s]) for s in schemes]
    width = max(8, *(len(name) for name, _ in groups))
    print(f"{args.workload}, seed {args.seed}: {what}")
    print(f"{column:<{width}} {'accesses':>9} {'calls':>7} {'bytecodes':>9}")
    for name, group in groups + [("all", rows)]:
        accesses = sum(row["accesses"] for row in group)
        print(
            f"{name:<{width}} {accesses:>9} {_per_access(group, 'calls'):>7} "
            f"{_per_access(group, 'bytecodes'):>9}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
