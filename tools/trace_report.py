#!/usr/bin/env python3
"""Render a JSONL trace as a per-address transaction timeline.

Input is the file ``--trace`` / ``--trace-out`` produces (one
:class:`repro.telemetry.TraceEvent` JSON object per line). Output is a
kind summary followed by a per-address timeline: the busiest addresses
(or those named with ``--addr``), each with its events in simulated
order, one line per event::

    $ python tools/trace_report.py trace.jsonl --limit 2
    trace.jsonl: 455648 events, 15 kinds, 4083 addresses
    ...
    addr 0x400000000 (1203 events)
      @24      core 0  txn:start    op=READ
      @88      core 0  txn:finish   latency=64
      ...

Traces merged from parallel workers interleave several runs' sequence
numbers; within one address the report orders by ``(cycle, seq)``,
which reconstructs each block's transaction history regardless of which
worker emitted it.

When the trace carries a ``measure:start`` event (the engine emits one
at the warmup boundary, where statistics reset), the header reports the
measurement-start cycle and each timeline gets a divider separating
warmup events from measured ones. Merged multi-run traces may hold
several such events; the divider uses the earliest.

Exit status: 0 on success, 1 when the trace is missing or empty.
"""

from __future__ import annotations

import argparse
import collections
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry import read_trace  # noqa: E402


def _parse_addr(text: str) -> int:
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/trace_report.py",
        description="Summarize a repro JSONL trace as per-address timelines.",
    )
    parser.add_argument("trace", help="JSONL trace file (e.g. trace.jsonl)")
    parser.add_argument(
        "--addr",
        action="append",
        type=_parse_addr,
        metavar="ADDR",
        help="show only this block address (hex or decimal; repeatable)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=5,
        metavar="N",
        help="addresses shown, busiest first (default: 5; 0 = all)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=20,
        metavar="N",
        help="events shown per address (default: 20; 0 = all)",
    )
    return parser


def _event_line(event) -> str:
    cycle = f"@{event.cycle}" if event.cycle is not None else "@-"
    core = f"core {event.core}" if event.core is not None else "      "
    data = " ".join(f"{key}={value}" for key, value in event.data.items())
    return f"  {cycle:<9} {core:<7} {event.kind:<15} {data}".rstrip()


def render(events, addrs=None, limit=5, per_addr=20) -> "list[str]":
    """Build the report lines for parsed trace ``events``."""
    kinds = collections.Counter(event.kind for event in events)
    by_addr: "dict[int, list]" = collections.defaultdict(list)
    for event in events:
        if event.addr is not None:
            by_addr[event.addr].append(event)

    lines = [
        f"{len(events)} events, {len(kinds)} kinds, "
        f"{len(by_addr)} addresses"
    ]
    width = max((len(kind) for kind in kinds), default=0)
    for kind, count in kinds.most_common():
        lines.append(f"  {kind:<{width}}  {count}")

    measure_starts = sorted(
        (e for e in events if e.kind == "measure:start"),
        key=lambda e: (e.cycle if e.cycle is not None else -1, e.seq),
    )
    boundary = None
    if measure_starts:
        first = measure_starts[0]
        boundary = first.cycle
        warmup = first.data.get("warmup_accesses")
        note = f" after {warmup} warmup accesses" if warmup is not None else ""
        extra = (
            f" (+{len(measure_starts) - 1} more runs)"
            if len(measure_starts) > 1
            else ""
        )
        lines.append(f"measurement starts @{boundary}{note}{extra}")

    if addrs:
        selected = [(addr, by_addr.get(addr, [])) for addr in addrs]
    else:
        ranked = sorted(
            by_addr.items(), key=lambda item: (-len(item[1]), item[0])
        )
        selected = ranked[:limit] if limit else ranked

    for addr, addr_events in selected:
        lines.append("")
        lines.append(f"addr {addr:#x} ({len(addr_events)} events)")
        addr_events = sorted(
            addr_events,
            key=lambda e: (e.cycle if e.cycle is not None else -1, e.seq),
        )
        shown = addr_events[:per_addr] if per_addr else addr_events
        marked = False
        for event in shown:
            if (
                not marked
                and boundary is not None
                and event.cycle is not None
                and event.cycle >= boundary
            ):
                lines.append(f"  --- measurement starts @{boundary} ---")
                marked = True
            lines.append(_event_line(event))
        hidden = len(addr_events) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
    return lines


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.exists(args.trace):
        print(f"trace_report: no such trace: {args.trace}", file=sys.stderr)
        return 1
    events = read_trace(args.trace)
    if not events:
        print(f"trace_report: {args.trace} holds no events", file=sys.stderr)
        return 1
    lines = render(
        events, addrs=args.addr, limit=args.limit, per_addr=args.events
    )
    print(f"{args.trace}: {lines[0]}")
    for line in lines[1:]:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
