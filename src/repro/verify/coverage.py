"""Protocol transition-coverage accounting.

A :class:`CoverageMap` is an observer on the one channel the home
controllers announce protocol transitions through
(:func:`repro.telemetry.attach_observer`): it counts the event kinds it
receives, with no translation, so coverage labels are simply kinds of
:data:`repro.telemetry.EVENT_KINDS`. Runs without an observer execute
the same instructions they always did and stay bit-identical.

The kinds it counts are short ``group:event`` strings:

* ``mesi:<pre>-><post>:<kind>`` — requester-side MESI transitions,
  derived by the verify harness from quiet pre/post ``state_of`` probes
  and emitted through the same channel (the controllers never pay for
  them);
* ``inval:<prior>->I`` — remote invalidations through the shared
  :meth:`~repro.coherence.base.BaseHome._invalidate_holders` path;
* ``dir:*`` — sparse-directory-side events (allocation, eviction,
  forwarding, upgrade);
* ``llc:*`` — in-LLC tracking events (corrupting/restoring lines,
  lengthened reads, tracked-victim back-invalidation);
* ``tiny:*`` — tiny-directory allocation decisions (DSTRA/gNRU
  allocate/decline/evict), spills, unspills and recalls;
* ``mgd:*`` / ``stash:*`` / ``shared_only:*`` — scheme-variant events.

:data:`KNOWN_TRANSITIONS` enumerates, per scheme name, the transitions
the conformance subsystem expects to be reachable; the fuzzer steers
its bias profiles toward uncovered entries and the CLI can assert a
coverage floor against the same universe.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "CoverageMap",
    "MESI_TRANSITIONS",
    "KNOWN_TRANSITIONS",
    "coverage_fraction",
    "render_coverage_table",
]


class CoverageMap:
    """Counts the protocol transitions emitted during a run."""

    enabled = True

    def __init__(self) -> None:
        self.counts: "Counter[str]" = Counter()

    def emit(self, kind: str, cycle=None, core=None, addr=None, **data) -> None:
        self.counts[kind] += 1

    def merge(self, other: "CoverageMap | dict | Counter") -> None:
        counts = other.counts if isinstance(other, CoverageMap) else other
        self.counts.update(counts)

    def covered(self) -> "set[str]":
        return set(self.counts)


#: MESI transitions observable from the requesting core's perspective.
MESI_TRANSITIONS = (
    "mesi:I->E:read",
    "mesi:I->S:read",
    "mesi:I->S:ifetch",
    "mesi:I->M:write",
    "mesi:S->M:write",
    "mesi:E->M:write",
    "mesi:S->S:read",
    "mesi:S->S:ifetch",
    "mesi:E->E:read",
    "mesi:M->M:read",
    "mesi:M->M:write",
)

#: Remote-invalidation transitions through the shared helper used by
#: the sparse-directory scheme family.
_INVAL = ("inval:M->I", "inval:E->I", "inval:S->I")

_SPARSE_DIR = (
    "dir:alloc",
    "dir:evict",
    "dir:drop",
    "dir:back_invalidate",
    "dir:fwd_exclusive",
    "dir:write_shared",
    "dir:upgrade",
)

_LLC = (
    "llc:mark_tracked",
    "llc:restore",
    "llc:evict_tracked",
    "llc:evict_dirty",
    "llc:lengthened_read",
)

_TINY = (
    "tiny:hit",
    "tiny:spill_hit",
    "tiny:fwd_refill",
    "tiny:unspill",
    "tiny:alloc",
    "tiny:evict",
    "tiny:decline",
    "tiny:spill",
    "tiny:rehome_spill",
    "tiny:rehome_corrupt",
    "tiny:recall",
    "llc:back_invalidate",
)

_MGD = (
    "mgd:region_alloc",
    "mgd:region_extend",
    "mgd:region_demote",
    "mgd:region_shrink",
    "mgd:block_alloc",
    "mgd:evict_region",
)

_STASH = ("stash:stash", "stash:recover", "stash:unstash")

#: Per-scheme transition universe the fuzzer steers toward and the CLI
#: reports coverage fractions against. Entries are kept to transitions
#: reachable at verification scale; rare corner events still get
#: counted when they fire, they just do not gate the floor.
KNOWN_TRANSITIONS: "dict[str, tuple[str, ...]]" = {
    "sparse": MESI_TRANSITIONS + _INVAL + _SPARSE_DIR,
    "in_llc": MESI_TRANSITIONS + _LLC,
    "tiny": MESI_TRANSITIONS + _LLC + _TINY,
    "mgd": MESI_TRANSITIONS
    + _INVAL
    + ("dir:back_invalidate", "dir:fwd_exclusive", "dir:write_shared", "dir:upgrade")
    + _MGD,
    "stash": MESI_TRANSITIONS + _INVAL + _SPARSE_DIR + _STASH,
}


def coverage_fraction(scheme: str, covered: "set[str]") -> float:
    """Fraction of the scheme's known universe present in ``covered``."""
    universe = KNOWN_TRANSITIONS.get(scheme, ())
    if not universe:
        return 1.0
    return sum(1 for t in universe if t in covered) / len(universe)


def render_coverage_table(per_scheme: "dict[str, set[str]]") -> str:
    """Text table: per scheme, covered/total and the uncovered tail."""
    lines = ["transition coverage", "-" * 66]
    lines.append(f"{'scheme':<10} {'covered':>9} {'fraction':>9}  uncovered")
    for scheme in sorted(per_scheme):
        covered = per_scheme[scheme]
        universe = KNOWN_TRANSITIONS.get(scheme, ())
        hit = [t for t in universe if t in covered]
        missing = [t for t in universe if t not in covered]
        shown = ", ".join(missing[:4]) + (" ..." if len(missing) > 4 else "")
        lines.append(
            f"{scheme:<10} {len(hit):>4}/{len(universe):<4} "
            f"{coverage_fraction(scheme, covered):>8.0%}  {shown or '-'}"
        )
    return "\n".join(lines)
