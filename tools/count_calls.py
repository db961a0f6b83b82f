#!/usr/bin/env python3
"""Python calls and bytecodes per simulated access, scheme by scheme.

Interpreter overhead is what the simulator's host time is made of, and
how many Python calls and bytecodes a run executes does not depend on
the host or its load: unlike a timing, the count of one version of the
program repeats exactly. This tool counts both around ``run_trace`` for
every point of a perfbench workload, built as perfbench/suite.py builds
it, and prints them per access, per scheme and over all points::

    python tools/count_calls.py --workload shared [--seed N]

``--workload fig13-sweep`` counts the sweep's points one after another
in this process: the figure's plan over the sweep's applications at the
quick scale and the seed, each trace built as ``run_app`` builds it.
Its rows are scheme variants, 2x sparse and the figure's three tiny
columns (whose specs all carry the name ``tiny``), then the tiny
columns together.

With ``--generate`` it counts the workload's trace generation instead
(``generate_streams`` with a cold trace cache, as perfbench times it,
after one throwaway trace takes the process's one-time imports) and
prints them per generated access, initialization pass included, per
application and over all traces::

    python tools/count_calls.py --generate --workload private-hit

Calls are ``sys.setprofile`` "call" events (Python frames; a generator
resume counts as a call). Bytecodes are ``sys.settrace`` opcode events
of a second run of each point, which is about 30 times slower than an
untraced run. tests/test_call_budget.py holds each scheme's calls per
access, and generation's calls per generated access, to budgets with
:func:`count_calls`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


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


#: The tiny-directory columns of the sweep's figure, by row label.
TINY_VARIANTS = ("tiny DSTRA", "DSTRA+gNRU", "+DynSpill")


def _variant(spec) -> str:
    """A sweep row's label: the scheme variant, as the figure's columns
    tell them apart."""
    if spec.name == "sparse":
        return f"{spec.ratio:g}x sparse"
    if spec.name == "tiny":
        if spec.spill:
            return TINY_VARIANTS[2]
        return TINY_VARIANTS[1] if spec.policy == "gnru" else TINY_VARIANTS[0]
    return spec.name


def _runs(name: str, seed: int):
    """Yield ``(app, scheme, config, streams)`` for each point of
    workload ``name``, in the order perfbench runs them."""
    from repro.analysis.runner import RunScale
    from repro.workloads.generator import generate_streams
    from repro.workloads.profiles import profile

    suite = _suite()
    workload = suite.WORKLOADS[name]
    scale = dataclasses.replace(RunScale.quick(), seed=seed)
    if workload.sweep:
        from repro.__main__ import FIGURES
        from repro.parallel import collect_points

        fn, extra = FIGURES[suite.SWEEP_FIGURE]
        for point in collect_points(fn, *extra, scale, apps=list(workload.apps)):
            config = point.scale.make_config(point.scheme)
            streams = generate_streams(
                profile(point.app), config, point.scale.total_accesses,
                seed=point.scale.seed,
            )
            yield point.app, _variant(point.scheme), config, streams
        return
    schemes = suite.figure_schemes(scale, workload.schemes)
    for app in workload.apps:
        streams = generate_streams(
            suite._profile(app), scale.make_config(schemes[0]), workload.accesses,
            seed=seed,
        )
        for spec in schemes:
            yield app, spec.name, scale.make_config(spec), streams


def count_workload(name: str, seed: int) -> "list[dict]":
    """One row per point of workload ``name``: its label, scheme,
    accesses, calls and bytecodes."""
    from repro.sim.engine import run_trace
    from repro.sim.system import System

    rows = []
    for app, scheme, config, streams in _runs(name, seed):
        row = {"label": f"{app}/{scheme}", "scheme": scheme}
        for counter in (count_calls, count_bytecodes):
            system = System(config)
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
    accesses = scale.total_accesses if workload.sweep else workload.accesses
    # A throwaway trace first: the imports a process makes on its first
    # generation are no application's cost.
    generate_streams(suite._profile(workload.apps[0]), config, 100, seed=seed + 1)
    rows = []
    for app in workload.apps:
        row = {"label": app}
        for counter in (count_calls, count_bytecodes):
            clear_trace_cache()
            streams = []
            row[counter.__name__[len("count_"):]] = counter(
                lambda: streams.extend(generate_streams(
                    suite._profile(app), config, accesses, seed=seed
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
    parser.add_argument("--workload", default="shared", choices=sorted(suite.WORKLOADS))
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
        tiny = [row for row in rows if row["scheme"] in TINY_VARIANTS]
        if tiny:
            groups.append(("tiny, all", tiny))
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
