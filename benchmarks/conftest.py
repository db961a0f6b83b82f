"""Benchmark harness support.

Each ``bench_fig*.py`` regenerates one of the paper's figures at the
scale selected by ``REPRO_SCALE`` (quick / default / full) and prints the
figure's series as a text table; pytest-benchmark records the wall time.
Results are cached under ``.repro_cache/`` so figures sharing runs (all
normalized figures share the 2x baselines) do not recompute them.

Figure point lists go through the parallel sweep executor
(:mod:`repro.parallel`), the way the figure CLI runs them: the
experiment is planned once to harvest its (app, scheme, scale) points,
the uncached points are swept over ``REPRO_JOBS`` worker processes
(default: all cores; inline at one), and the figure is then rendered
from the sweep's report — bit-identical to a serial run, but wall-clock
bound by the slowest point instead of the sum of all points.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import collect_points, pending_points, resolve_jobs, run_sweep
from repro.telemetry import bench_dir_from_env, write_bench_point


@pytest.fixture
def figure_runner(benchmark, request):
    """Run an experiment function once and print its rendered table.

    The experiment's uncached points are swept first; pytest-benchmark
    times the render, which takes them from the sweep's report.

    With ``REPRO_BENCH_DIR`` set, each benchmark additionally persists
    a ``BENCH_<test>.json`` perf point (wall-clock seconds, computed
    point count, scale, worker count) for CI to archive; see
    ``docs/telemetry.md``.
    """

    def run(experiment, *args, **kwargs):
        jobs = resolve_jobs()
        started = time.perf_counter()
        points = pending_points(collect_points(experiment, *args, **kwargs))
        with run_sweep(points, jobs=jobs).serve():
            figure = benchmark.pedantic(
                lambda: experiment(*args, **kwargs), rounds=1, iterations=1
            )
        elapsed = time.perf_counter() - started
        bench_dir = bench_dir_from_env()
        if bench_dir is not None:
            write_bench_point(
                bench_dir,
                request.node.name,
                seconds=round(elapsed, 3),
                computed_points=len(points),
                scale=os.environ.get("REPRO_SCALE", "default"),
                jobs=jobs,
                experiment=getattr(experiment, "__name__", str(experiment)),
            )
        print()
        print(figure.render())
        return figure

    return run
