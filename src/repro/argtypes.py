"""Argument and environment checks shared by the command-line interfaces.

The figure CLI (``python -m repro``), ``python -m repro verify`` and
``python -m repro diff`` refuse an out-of-range number the same way: a
usage error (exit 2) that names the flag. They refuse a ``REPRO_*``
variable the program never reads the same way too, naming the variable,
and so do the figure CLI and ``verify`` for a ``REPRO_TRACE`` or
``REPRO_AUDIT`` value that is not one of the accepted values below.
The checks live apart from ``repro.__main__`` so the subcommands need
not import the figure registry to use them.
"""

from __future__ import annotations

import os

#: Every ``REPRO_*`` environment variable the program reads.
#: ``tools/check_docs.py`` fails when this list and the names read under
#: ``src/`` drift apart.
KNOBS = (
    "REPRO_AUDIT",
    "REPRO_BENCH_DIR",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_FAULTS",
    "REPRO_FAULT_SEED",
    "REPRO_JOBS",
    "REPRO_SCALE",
    "REPRO_TRACE",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_FILE",
    "REPRO_TRACE_OUT",
    "REPRO_TRACE_RECORD",
    "REPRO_TRACE_WORKER",
)


def unknown_knobs() -> "list[str]":
    """One problem line per ``REPRO_*`` variable set that the program
    never reads: a typo, or a retired knob. Nothing would read it, so a
    CLI refuses it rather than run as if it were honoured."""
    return [
        f"unknown {name}: the program reads no such variable "
        f"(its REPRO_* knobs are {', '.join(KNOBS)})"
        for name in sorted(os.environ)
        if name.startswith("REPRO_") and name not in KNOBS
    ]


#: Values (any case, surrounding blanks ignored) with which
#: ``REPRO_TRACE`` and ``REPRO_AUDIT`` leave tracing or auditing off;
#: unset is off too.
SWITCH_OFF = ("off", "0", "no", "false")
#: Values that turn them on: ``REPRO_AUDIT`` audits at the default
#: interval (it also accepts a positive integer, the interval), and
#: ``REPRO_TRACE`` traces to JSONL, its one backend.
SWITCH_ON = ("on", "1", "yes", "true")
#: Every value with which ``REPRO_TRACE`` turns JSONL tracing on.
TRACE_ON = ("jsonl", *SWITCH_ON)


def switch_value(name: str) -> str:
    """``name``'s value as the switches compare it: stripped, lower case,
    and empty when unset."""
    return os.environ.get(name, "").strip().lower()


def audit_interval(value: str) -> "int | None":
    """The audit interval a ``REPRO_AUDIT`` value names: a positive
    integer, else None."""
    try:
        interval = int(value)
    except ValueError:
        return None
    return interval if interval > 0 else None


def invalid_switches(*names: str) -> "list[str]":
    """One problem line per switch among ``names`` (``REPRO_TRACE``,
    ``REPRO_AUDIT``) whose value is not accepted, naming the accepted
    values. A run would go ahead untraced or unaudited, so a CLI refuses
    it rather than warn."""
    problems = []
    for name in names:
        value = switch_value(name)
        if not value or value in SWITCH_OFF:
            continue
        if name == "REPRO_TRACE":
            if value in TRACE_ON:
                continue
            *values, last = (*TRACE_ON, *SWITCH_OFF)
        else:
            if value in SWITCH_ON or audit_interval(value) is not None:
                continue
            values, last = (*SWITCH_ON, *SWITCH_OFF), "a positive audit interval"
        expected = f"{', '.join(values)} or {last}"
        problems.append(
            f"invalid {name}={os.environ[name]!r} (expected {expected})"
        )
    return problems


def at_least(convert, low, inclusive: bool = True, at_most=None):
    """An argparse ``type=``: ``convert`` the text, then refuse values
    below ``low`` (or equal to it unless ``inclusive``) and, when
    ``at_most`` is given, above it, so an out-of-range flag is a usage
    error that names the flag. NaN is in no range."""
    # Imported here: the telemetry and audit modules import this one for
    # its switch values, and a library import need not load argparse.
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
