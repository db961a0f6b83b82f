"""Lightweight observability for sweep runs.

Every point executed by :func:`repro.parallel.executor.run_sweep` yields
a :class:`RunProfile` — wall time, simulated accesses per second, cache
hit/miss, and the worker that ran it. :class:`SweepSummary` aggregates
the profiles of one sweep into the one-paragraph report the CLI prints,
and :func:`print_slowest_profile` renders the cProfile stats the
``--profile`` flag collects for the slowest computed point.
"""

from __future__ import annotations

import pstats
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class RunProfile:
    """Observability record for one executed sweep point."""

    app: str
    scheme: str
    #: Submission index of the point within its sweep.
    index: int
    #: Wall-clock seconds the point took on its worker (including a
    #: cache-hit load, which is why hits show tiny but non-zero times).
    wall_s: float
    #: Simulated accesses per wall-clock second; 0.0 for cache hits and
    #: failed runs, where the figure would be meaningless.
    accesses_per_s: float
    #: True when the result came from the on-disk cache.
    cache_hit: bool
    #: True when the run exhausted its attempts (keep-going placeholder).
    failed: bool
    #: PID of the worker process that executed the point.
    worker: int
    #: Where the point's cProfile dump was written (``--profile`` only).
    stats_path: "str | None" = None

    @property
    def label(self) -> str:
        return f"{self.app}/{self.scheme}"


@dataclass(frozen=True)
class SweepSummary:
    """Aggregated statistics of one sweep."""

    points: int
    computed: int
    cache_hits: int
    failed: int
    jobs: int
    #: Wall-clock seconds of the whole sweep, pool overhead included.
    wall_s: float
    #: Sum of per-point wall times; ``cpu_s / wall_s`` is the effective
    #: parallel speedup.
    cpu_s: float
    slowest: "RunProfile | None"
    #: Why the sweep journal was disabled mid-sweep; empty when it
    #: never was.
    journal_disabled: str = ""

    @property
    def speedup(self) -> float:
        """Aggregate point-seconds per wall-second (parallel efficiency)."""
        if self.wall_s <= 0:
            return 0.0
        return self.cpu_s / self.wall_s

    def render(self) -> str:
        """The one-paragraph sweep report the CLI prints."""
        parts = [f"{self.computed} computed"]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.failed:
            parts.append(f"{self.failed} failed")
        lines = [
            f"sweep: {self.points} point(s) ({', '.join(parts)}), "
            f"jobs={self.jobs}, wall {self.wall_s:.1f}s, "
            f"point-time {self.cpu_s:.1f}s ({self.speedup:.1f}x)"
        ]
        if self.slowest is not None:
            slow = self.slowest
            lines.append(
                f"  slowest: {slow.label} {slow.wall_s:.2f}s "
                f"({slow.accesses_per_s:,.0f} accesses/s, "
                f"worker {slow.worker})"
            )
        if self.journal_disabled:
            lines.append(
                f"  journal: disabled mid-sweep ({self.journal_disabled})"
            )
        return "\n".join(lines)


def summarize(
    profiles: "list[RunProfile]",
    jobs: int,
    wall_s: float,
    journal_disabled: str = "",
) -> SweepSummary:
    """Fold a sweep's :class:`RunProfile` list into a :class:`SweepSummary`."""
    computed = [p for p in profiles if not p.cache_hit and not p.failed]
    slowest = max(computed, key=lambda p: p.wall_s, default=None)
    return SweepSummary(
        points=len(profiles),
        computed=len(computed),
        cache_hits=sum(1 for p in profiles if p.cache_hit),
        failed=sum(1 for p in profiles if p.failed),
        jobs=jobs,
        wall_s=wall_s,
        cpu_s=sum(p.wall_s for p in profiles),
        slowest=slowest,
        journal_disabled=journal_disabled,
    )


def render_profiles_table(profiles: "list[RunProfile]") -> str:
    """A per-point table of the sweep's profiles (slowest first)."""
    header = f"{'point':32} {'wall_s':>8} {'acc/s':>10} {'src':>6} {'worker':>7}"
    rows = [header, "-" * len(header)]
    for prof in sorted(profiles, key=lambda p: p.wall_s, reverse=True):
        source = "fail" if prof.failed else ("cache" if prof.cache_hit else "run")
        rows.append(
            f"{prof.label[:32]:32} {prof.wall_s:8.2f} "
            f"{prof.accesses_per_s:10,.0f} {source:>6} {prof.worker:7d}"
        )
    return "\n".join(rows)


def print_slowest_profile(
    profiles: "list[RunProfile]", stream=None, limit: int = 20
) -> "RunProfile | None":
    """Print cProfile stats of the slowest *computed* point, if collected.

    Returns the profile whose stats were printed, or None when the sweep
    computed nothing under profiling (e.g. every point was cached).
    """
    stream = stream if stream is not None else sys.stdout
    candidates = [
        p for p in profiles
        if p.stats_path is not None and not p.cache_hit and not p.failed
    ]
    if not candidates:
        print("no computed point was profiled (all cached or failed)",
              file=stream)
        return None
    slowest = max(candidates, key=lambda p: p.wall_s)
    print(f"cProfile of slowest point {slowest.label} "
          f"({slowest.wall_s:.2f}s wall):", file=stream)
    stats = pstats.Stats(slowest.stats_path, stream=stream)
    stats.sort_stats("cumulative").print_stats(limit)
    return slowest
