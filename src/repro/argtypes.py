"""Argparse ``type=`` converters shared by the command-line interfaces.

The figure CLI (``python -m repro``), ``python -m repro verify`` and
``python -m repro diff`` refuse an out-of-range number the same way: a
usage error (exit 2) that names the flag. The converter lives apart from
``repro.__main__`` so the subcommands need not import the figure
registry to use it.
"""

from __future__ import annotations

import argparse


def at_least(convert, low, inclusive: bool = True, at_most=None):
    """An argparse ``type=``: ``convert`` the text, then refuse values
    below ``low`` (or equal to it unless ``inclusive``) and, when
    ``at_most`` is given, above it, so an out-of-range flag is a usage
    error that names the flag. NaN is in no range."""
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
