"""Argument and environment checks shared by the command-line interfaces.

The figure CLI (``python -m repro``), ``python -m repro verify`` and
``python -m repro diff`` refuse an out-of-range number the same way: a
usage error (exit 2) that names the flag. They refuse a ``REPRO_*``
variable the program never reads the same way too, naming the variable,
and a ``REPRO_JOBS`` that is not a worker count.
The checks live apart from ``repro.__main__`` so the subcommands need
not import the figure registry to use them.
"""

from __future__ import annotations

import os

#: Every ``REPRO_*`` environment variable the program reads.
#: ``REPRO_SCALE`` and ``REPRO_JOBS`` are the defaults of ``--scale``
#: and ``--jobs``; the others have no flag. ``tools/check_docs.py``
#: fails when this list and the names read under ``src/`` drift apart.
KNOBS = (
    "REPRO_BENCH_DIR",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_FAULTS",
    "REPRO_FAULT_SEED",
    "REPRO_JOBS",
    "REPRO_SCALE",
)


#: The knobs ``verify`` and ``diff`` accept: all but the fault knobs,
#: whose job their own flags do. Of these they read only
#: ``REPRO_JOBS``. ``REPRO_SCALE``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``
#: and ``REPRO_BENCH_DIR`` change nothing there (they run at their own
#: geometry, never cache and write no perf points) but stay accepted,
#: so one environment serves every command.
VERIFY_KNOBS = tuple(
    name for name in KNOBS if name not in ("REPRO_FAULTS", "REPRO_FAULT_SEED")
)


def unknown_knobs(reads: "tuple[str, ...]" = KNOBS,
                  instead: str = "") -> "list[str]":
    """One problem line per ``REPRO_*`` variable set that the calling
    CLI does not read: a typo, a retired knob, or a knob of ``KNOBS``
    missing from ``reads``, whose line points to the flag ``instead``.
    Nothing would read it, so the CLI refuses it rather than run as if
    it were honoured."""
    return [
        f"{name} is not read by this command; use {instead} instead"
        if name in KNOBS else
        f"unknown {name}: the program reads no such variable "
        f"(this command's REPRO_* knobs are {', '.join(reads)})"
        for name in sorted(os.environ)
        if name.startswith("REPRO_") and name not in reads
    ]


def parse_jobs(raw: str) -> "int | None":
    """``raw`` as a worker count, or None unless it is an integer >= 1."""
    try:
        jobs = int(raw)
    except ValueError:
        return None
    return jobs if jobs >= 1 else None


def invalid_jobs(jobs: "int | None") -> "list[str]":
    """A problem line for a ``REPRO_JOBS`` that is not an integer >= 1,
    unless ``--jobs`` gave ``jobs``: the flag wins."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if jobs is None and raw and parse_jobs(raw) is None:
        return [f"invalid REPRO_JOBS={raw!r} (expected an integer >= 1)"]
    return []


def at_least(convert, low, inclusive: bool = True, at_most=None):
    """An argparse ``type=``: ``convert`` the text, then refuse values
    below ``low`` (or equal to it unless ``inclusive``) and, when
    ``at_most`` is given, above it, so an out-of-range flag is a usage
    error that names the flag. NaN is in no range."""
    # Imported here: a library import of this module need not load
    # argparse.
    import argparse

    bound = f"at least {low}" if inclusive else f"above {low}"
    if at_most is not None:
        bound += f" and at most {at_most}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        fits = value >= low if inclusive else value > low
        if at_most is not None:
            fits = fits and value <= at_most
        if not fits:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse
