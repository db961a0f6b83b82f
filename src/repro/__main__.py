"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro --list
    python -m repro fig01 fig10
    python -m repro --all --scale quick --jobs 4
    python -m repro fig13 --apps barnes TPC-C
    python -m repro --all --keep-going --timeout 600
    python -m repro fig10 --audit
    python -m repro fig10 --recovery repair
    python -m repro --all --resume
    python -m repro fig13 --profile
    python -m repro fig10 --trace --metrics
    python -m repro verify --fuzz --steps 2000 --seed 7
    python -m repro diff --trace tests/corpus --bisect

``verify`` dispatches to the protocol conformance runner (litmus
tests, random-walk fuzzing with shrinking, fault-detection checks,
transition coverage); see ``docs/verification.md`` and
``python -m repro verify --help``.

``diff`` dispatches to the cross-scheme differential harness: record
``.rtrace`` captures, replay them through every scheme, check
architectural agreement and stat tolerances, and bisect divergences to
minimal replayable sub-traces; see ``docs/verification.md`` and
``python -m repro diff --help``.

Each figure is printed as a text table (the same output the benchmark
harness produces). Results are cached under ``.repro_cache/``.

``--jobs N`` (or ``REPRO_JOBS``) fans the figures' independent
(app, scheme, scale) points out over N worker processes before
rendering; results are bit-identical to a serial run. ``--profile``
prints a per-sweep summary plus cProfile stats of the slowest computed
point. ``--audit`` enables the online protocol auditor (equivalent to
setting ``REPRO_AUDIT=on``); ``--keep-going`` records per-run failures
and keeps sweeping instead of aborting on the first crash.

``--recovery repair`` arms self-healing coherence (equivalent to
``REPRO_RECOVERY=repair``): a tripped invariant is repaired in place
and the run resumes instead of aborting; see ``docs/resilience.md``.
Sweeps journal per-point completion next to the result cache, and
``--resume`` skips the journaled points of an interrupted sweep; see
``docs/harness.md``.

``--trace`` writes a structured JSONL event trace of every run,
``--metrics`` snapshots counters and phase timers into the stats
telemetry section; render traces with ``python tools/trace_report.py``.
See ``docs/telemetry.md``. A cached point is replayed, not simulated,
so ``--trace``, ``--trace-out``, ``--audit`` and ``--recovery repair``
or ``repair-strict`` (or ``REPRO_TRACE`` / ``REPRO_AUDIT`` /
``REPRO_RECOVERY`` turning them on) exit 2 when any requested point is
already in the result cache: point ``REPRO_CACHE_DIR`` at a fresh
directory, or set ``REPRO_CACHE=off``.

``--timeout`` must be above 0 seconds, ``--retries`` at least 0 and
``--jobs`` at least 1; any other value is a usage error (exit 2). So
is a ``REPRO_JOBS`` that is not an integer of at least 1 (when
``--jobs`` is not given) and a ``REPRO_CACHE`` other than ``on``,
``off``, ``0`` or ``no``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import experiments
from repro.analysis.cache import CACHE_OFF, cache_dir, cache_enabled
from repro.analysis.runner import HarnessPolicy, RunScale, harness
from repro.errors import ShutdownRequested
from repro.parallel import (
    SweepJournal,
    collect_points,
    dedupe_points,
    pending_points,
    print_slowest_profile,
    render_profiles_table,
    resolve_jobs,
    run_sweep,
)
from repro.parallel.executor import parse_jobs
from repro.parallel.shutdown import (
    EXIT_INTERRUPTED,
    graceful_scope,
    resume_hint,
)
from repro.recovery import recovery_from_env
from repro.resilience import auditor_from_env
from repro.telemetry import tracer_from_env

#: CLI name -> (experiment callable, positional args).
FIGURES = {
    "fig01": (experiments.fig01_sparse_sizes, ()),
    "fig02": (experiments.fig02_sharer_distribution, ()),
    "fig03": (experiments.fig03_shared_only, ()),
    "fig03z": (experiments.fig03_shared_only, ()),  # zcache handled below
    "fig04": (experiments.fig04_in_llc_performance, ()),
    "fig05": (experiments.fig05_in_llc_traffic, ()),
    "fig06": (experiments.fig06_lengthened_accesses, ()),
    "fig07": (experiments.fig07_lengthened_blocks, ()),
    "fig08": (experiments.fig08_stra_blocks, ()),
    "fig09": (experiments.fig09_stra_accesses, ()),
    "fig10": (experiments.tiny_directory_performance, (1 / 32,)),
    "fig11": (experiments.tiny_directory_performance, (1 / 64,)),
    "fig12": (experiments.tiny_directory_performance, (1 / 128,)),
    "fig13": (experiments.tiny_directory_performance, (1 / 256,)),
    "fig14": (experiments.tiny_residual_lengthened, (1 / 32,)),
    "fig15": (experiments.tiny_residual_lengthened, (1 / 256,)),
    "fig16": (experiments.tiny_structure_metric, ("hits",)),
    "fig17": (experiments.tiny_structure_metric, ("allocations",)),
    "fig18": (experiments.tiny_structure_metric, ("hits_per_alloc",)),
    "fig19": (experiments.fig19_spill_benefit, ()),
    "fig20": (experiments.fig20_miss_rate_increase, ()),
    "fig21": (experiments.fig21_energy, ()),
    "fig22": (experiments.fig22_mgd_stash, ()),
    "halved": (experiments.halved_hierarchy, ()),
    "ablation-gnru": (experiments.ablation_gnru_generation, ()),
    "ablation-delta": (experiments.ablation_spill_delta, ()),
    "ablation-stra": (experiments.ablation_stra_width, ()),
}

_SCALES = {
    "quick": RunScale.quick,
    "default": RunScale.default,
    "full": RunScale.full,
}


def _at_least(convert, low: int, inclusive: bool = True):
    """An argparse ``type=``: ``convert`` the text, then refuse values
    below ``low`` (or equal to it unless ``inclusive``), so an
    out-of-range flag is a usage error that names the flag."""
    bound = f"at least {low}" if inclusive else f"above {low}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures of the Tiny Directory paper (HPCA 2017).",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="figure ids to run (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="simulation scale preset",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        metavar="APP",
        help="restrict to these applications (default: all seventeen)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the online protocol auditor (same as REPRO_AUDIT=on)",
    )
    parser.add_argument(
        "--recovery",
        choices=("abort", "repair", "repair-strict"),
        metavar="MODE",
        help="self-healing mode for tripped invariants: abort (default), "
        "repair, or repair-strict (same as REPRO_RECOVERY=MODE; implies "
        "auditing)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip sweep points already journaled by a previous "
        "(interrupted) run and recompute only the rest",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect per-run failures instead of aborting the sweep",
    )
    parser.add_argument(
        "--timeout",
        type=_at_least(float, 0, inclusive=False),
        metavar="SECONDS",
        help="per-run wall-clock limit, above 0 (cooperative deadline; "
        "works on every platform and in worker processes)",
    )
    parser.add_argument(
        "--retries",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help="retry each failing run up to N >= 0 extra times",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=_at_least(int, 1),
        default=None,
        metavar="N",
        help="worker processes for the sweep, N >= 1 (default: "
        "REPRO_JOBS, else all cores); results are bit-identical to a "
        "serial run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="per-point profiles plus cProfile stats of the slowest "
        "computed point",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="write a structured JSONL trace of every computed run "
        "(same as REPRO_TRACE=jsonl; see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="trace destination (default trace.jsonl; same as "
        "REPRO_TRACE_OUT=PATH; implies --trace)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/gauges/phase timers into the stats "
        "telemetry section (same as REPRO_METRICS=on)",
    )
    return parser


def _invalid_knobs(args) -> "list[str]":
    """The ``REPRO_*`` values this run would otherwise ignore.

    ``REPRO_JOBS`` counts only when ``--jobs`` is not given.
    """
    problems = []
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if args.jobs is None and raw and parse_jobs(raw) is None:
        problems.append(
            f"invalid REPRO_JOBS={raw!r} (expected an integer >= 1)"
        )
    raw = os.environ.get("REPRO_CACHE", "")
    if raw and raw.lower() not in ("on", *CACHE_OFF):
        problems.append(
            f"invalid REPRO_CACHE={raw!r} (expected on, off, 0 or no)"
        )
    return problems


def _needs_cache(args) -> "list[str]":
    """The flags given that only the sweep executor honours.

    The executor runs only with the result cache on, so under
    ``REPRO_CACHE=off`` these would be accepted and silently ignored.
    The CPU-count default of ``--jobs`` is not a flag given.
    """
    flags = []
    if args.jobs is not None:
        if args.jobs > 1:
            flags.append(f"--jobs {args.jobs}")
    else:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        # Unset means the CPU count; _invalid_knobs refused the rest.
        if raw and int(raw) > 1:
            flags.append(f"REPRO_JOBS={raw}")
    if args.profile:
        flags.append("--profile")
    if args.resume:
        flags.append("--resume")
    return flags


def _observing(args) -> "list[str]":
    """The tracing, auditing and recovery requests given.

    A cached point is replayed from the result cache, not simulated, so
    none of them could observe it. ``--recovery abort`` turns nothing
    on, and overrides ``REPRO_RECOVERY`` as it does for the run.
    """
    flags = []
    if args.trace:
        flags.append("--trace")
    if args.trace_out:
        flags.append("--trace-out")
    if not flags and tracer_from_env() is not None:
        flags.append(f"REPRO_TRACE={os.environ['REPRO_TRACE']}")
    if args.audit:
        flags.append("--audit")
    elif auditor_from_env() is not None:
        flags.append(f"REPRO_AUDIT={os.environ['REPRO_AUDIT']}")
    if args.recovery is not None:
        if args.recovery != "abort":
            flags.append(f"--recovery {args.recovery}")
    elif recovery_from_env() is not None:
        flags.append(f"REPRO_RECOVERY={os.environ['REPRO_RECOVERY']}")
    return flags


def _plan(names, scale, args) -> list:
    """Every (app, scheme, scale) point the requested figures will ask
    the result cache for, deduplicated."""
    points = []
    for name in names:
        fn, extra = FIGURES[name]
        kwargs = {"apps": args.apps} if args.apps else {}
        if name == "fig03z":
            kwargs["zcache"] = True
        points.extend(collect_points(fn, *extra, scale, **kwargs))
    return dedupe_points(points)


def _prewarm(names, scale, args, policy, jobs: int) -> None:
    """Plan the figures' point lists and fan them out over the pool.

    Drops the already-cached points of :func:`_plan` and executes the
    rest through :func:`repro.parallel.run_sweep`. The figure-render
    pass that follows then runs entirely from cache, so figure output
    (and failure reporting) is identical to a serial run.
    """
    points = pending_points(_plan(names, scale, args))
    if not points and not args.profile:
        return
    profile_dir = str(cache_dir() / "profiles") if args.profile else None
    journal = SweepJournal.default() if cache_enabled() else None
    report = run_sweep(points, jobs=jobs, policy=policy,
                       profile_dir=profile_dir,
                       journal=journal, resume=args.resume)
    print(report.summary().render(), file=sys.stderr)
    if args.resume and report.resumed_points:
        print(
            f"resumed: {report.resumed_points} journaled point(s) skipped",
            file=sys.stderr,
        )
    if args.profile:
        if report.profiles:
            print(render_profiles_table(report.profiles))
        print_slowest_profile(report.profiles)


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.verify.diff_cli import main as diff_main

        return diff_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        for name, (fn, extra) in FIGURES.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:15} {doc}")
        return 0
    names = list(FIGURES) if args.all else args.figures
    if not names:
        build_parser().print_usage()
        return 2
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)} (try --list)", file=sys.stderr)
        return 2
    invalid = _invalid_knobs(args)
    if invalid:
        for problem in invalid:
            print(f"repro: {problem}", file=sys.stderr)
        return 2
    ignored = [] if cache_enabled() else _needs_cache(args)
    if ignored:
        print(
            f"repro: {', '.join(ignored)} cannot work with REPRO_CACHE=off: "
            "the sweep executor needs the result cache. For a cold run, set "
            "REPRO_CACHE_DIR to a fresh directory instead, e.g. "
            "REPRO_CACHE_DIR=$(mktemp -d)",
            file=sys.stderr,
        )
        return 2
    observing = _observing(args) if cache_enabled() else []
    if args.audit:
        os.environ["REPRO_AUDIT"] = "on"
    if args.recovery:
        # Via the environment so pool workers (and cache keys) see it.
        os.environ["REPRO_RECOVERY"] = args.recovery
    if args.trace or args.trace_out:
        # setdefault keeps an explicit REPRO_TRACE=ring (etc.) in force.
        os.environ.setdefault("REPRO_TRACE", "jsonl")
    if args.trace_out:
        os.environ["REPRO_TRACE_OUT"] = args.trace_out
    if args.metrics:
        os.environ["REPRO_METRICS"] = "on"
    scale = _SCALES[args.scale]()
    if observing:
        # Planned after the environment is final: it is part of the keys.
        points = _plan(names, scale, args)
        cached = len(points) - len(pending_points(points))
        if cached:
            print(
                f"repro: {', '.join(observing)} cannot observe the {cached} "
                f"point(s) already in the result cache: cached points are "
                "replayed, not simulated. Set REPRO_CACHE_DIR to a fresh "
                "directory instead, e.g. REPRO_CACHE_DIR=$(mktemp -d)",
                file=sys.stderr,
            )
            return 2
    policy = HarnessPolicy(
        keep_going=args.keep_going,
        timeout_s=args.timeout,
        max_retries=args.retries,
    )
    jobs = resolve_jobs(args.jobs)
    failed_figures = []
    try:
        with graceful_scope(), harness(policy):
            if (jobs > 1 or args.profile or args.resume) and cache_enabled():
                _prewarm(names, scale, args, policy, jobs)
            for name in names:
                fn, extra = FIGURES[name]
                kwargs = {"apps": args.apps} if args.apps else {}
                if name == "fig03z":
                    kwargs["zcache"] = True
                seen = len(policy.failures)
                try:
                    figure = fn(*extra, scale, **kwargs)
                except Exception as err:  # noqa: BLE001 - sweep boundary
                    if not args.keep_going:
                        raise
                    failed_figures.append(name)
                    print(f"{name}: FAILED ({type(err).__name__}: {err})")
                    print()
                    continue
                figure.failures.extend(policy.failures[seen:])
                print(figure.render())
                print()
    except ShutdownRequested as shutdown:
        # Everything already computed is journaled (and cached); tell
        # the operator how to pick the sweep back up, and exit with the
        # distinct "interrupted, resumable" code.
        print(f"\nrepro: {shutdown}", file=sys.stderr)
        if cache_enabled():
            journal_path = cache_dir() / SweepJournal.FILENAME
            print(resume_hint(journal_path, argv), file=sys.stderr)
        return EXIT_INTERRUPTED
    if policy.failures or failed_figures:
        print(
            f"{len(policy.failures)} run(s) failed"
            + (f"; figures aborted: {', '.join(failed_figures)}"
               if failed_figures else ""),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        raise SystemExit(0)
