"""repro.parallel — process-based sweep execution with profiling hooks.

Every figure of the paper's evaluation is a sweep over independent
(application, scheme, scale) points; this package fans those points out
over a worker pool while keeping results **bit-identical** to the
serial path (seeds derive per point, never from scheduling order).

Typical use::

    from repro.parallel import SweepPoint, collect_points, run_sweep
    from repro.analysis import experiments

    points = collect_points(experiments.fig01_sparse_sizes, scale)
    report = run_sweep(points, jobs=4)
    print(report.summary().render())
    with report.serve():  # every point from the report
        figure = experiments.fig01_sparse_sizes(scale)

The CLI (``python -m repro``, at every ``--jobs``) and the benchmark
drivers use exactly this plan/execute/render split. See
``docs/harness.md``.
"""

from repro.parallel.executor import SweepReport, resolve_jobs, run_sweep, run_tasks
from repro.parallel.journal import SweepJournal
from repro.parallel.planner import collect_points, pending_points
from repro.parallel.points import SweepPoint, dedupe_points
from repro.parallel.profiling import (
    RunProfile,
    SweepSummary,
    print_slowest_profile,
    render_profiles_table,
    summarize,
)

__all__ = [
    "RunProfile",
    "SweepJournal",
    "SweepPoint",
    "SweepReport",
    "SweepSummary",
    "collect_points",
    "dedupe_points",
    "pending_points",
    "print_slowest_profile",
    "render_profiles_table",
    "resolve_jobs",
    "run_sweep",
    "run_tasks",
    "summarize",
]
