"""Curated litmus tests: small adversarial multi-core access patterns.

Each test is a short schedule built from the machine's actual geometry
(set-conflict addresses are derived from the configured number of L2
sets, LLC banks, and LLC sets — never hard-coded), run against every
applicable scheme with the value oracle on and the protocol auditor
checking invariants after *every* step. A test passes when no protocol,
invariant, or oracle violation fires; the interesting outcomes (stale
reads, missed invalidations, tracking lost across evictions) are
exactly what the oracle and auditor encode, so the tests carry no
per-test expected-value tables.

The library leans on the schemes' pressure points: writeback and
invalidation crossings, private- and LLC-eviction under sharing,
directory eviction with live sharers, tiny-directory spill/recall, MGD
region demotion, and Stash broadcast recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.verify.coverage import CoverageMap
from repro.verify.harness import build_system, run_schedule
from repro.verify.steps import F, R, W

#: All litmus tests run on the same miniature machine so set-conflict
#: construction is deterministic and cheap.
LITMUS_CORES = 4
LITMUS_L1_KB = 1
LITMUS_L2_KB = 4


@dataclass(frozen=True)
class Geometry:
    """The address-mapping facts litmus builders need."""

    l2_sets: int
    l2_assoc: int
    num_banks: int
    llc_sets: int
    llc_assoc: int

    def l2_conflicts(self, addr: int, count: int) -> "list[int]":
        """``count`` distinct blocks mapping to ``addr``'s L2 set."""
        return [addr + self.l2_sets * (k + 1) for k in range(count)]

    def llc_conflicts(self, addr: int, count: int) -> "list[int]":
        """``count`` distinct blocks mapping to ``addr``'s LLC bank+set."""
        stride = self.num_banks * self.llc_sets
        return [addr + stride * (k + 1) for k in range(count)]

    def bank_pool(self, bank: int, count: int) -> "list[int]":
        """``count`` blocks homed at ``bank``, spread over its sets."""
        return [bank + self.num_banks * k for k in range(count)]


def geometry_of(system) -> Geometry:
    config = system.config
    return Geometry(
        l2_sets=config.l2_sets,
        l2_assoc=config.l2_assoc,
        num_banks=config.num_banks,
        llc_sets=config.llc_sets_per_bank,
        llc_assoc=config.llc_assoc,
    )


@dataclass(frozen=True)
class LitmusTest:
    """One named access pattern; ``build(geom)`` yields the schedule."""

    name: str
    description: str
    build: "callable"
    #: Scheme names the test applies to (None = every scheme).
    schemes: "tuple[str, ...] | None" = None

    def applies_to(self, scheme: str) -> bool:
        return self.schemes is None or scheme in self.schemes


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def _store_buffering(geom: Geometry):
    a, b = 1, 2
    return [W(0, a), W(1, b), R(0, b), R(1, a), R(2, a), R(2, b), W(2, a), R(3, a)]


def _message_passing(geom: Geometry):
    data, flag = 5, 6
    return [
        W(0, data), W(0, flag), R(1, flag), R(1, data),
        W(1, data), R(0, data), R(2, flag), R(3, data),
    ]


def _ownership_ping_pong(geom: Geometry):
    a = 3
    return [W(0, a), W(1, a), W(0, a), W(1, a), R(2, a), W(3, a), R(0, a), R(3, a)]


def _upgrade_race(geom: Geometry):
    a = 9
    return [R(0, a), R(1, a), R(2, a), W(1, a), R(0, a), W(2, a), R(3, a), W(3, a)]


def _ifetch_sharing(geom: Geometry):
    code = 7
    return [F(0, code), F(1, code), F(2, code), F(3, code), W(0, code), F(1, code), F(3, code)]


def _writeback_crossing(geom: Geometry):
    a = 4
    steps = [W(0, a)]
    # Conflict-evict A from core 0's L2 (dirty writeback crosses the
    # interconnect), then have another core read and write it.
    steps += [R(0, x) for x in geom.l2_conflicts(a, geom.l2_assoc)]
    steps += [R(1, a), W(1, a), R(0, a)]
    return steps


def _eviction_under_sharing(geom: Geometry):
    a = 8
    steps = [R(0, a), R(1, a), R(2, a)]
    # Evict the shared copy from core 0 only; the tracker must drop
    # core 0 without disturbing cores 1 and 2.
    steps += [R(0, x) for x in geom.l2_conflicts(a, geom.l2_assoc)]
    steps += [W(1, a), R(2, a), R(0, a)]
    return steps


def _directory_pressure(geom: Geometry):
    # Many shared blocks homed at one bank force tracking-structure
    # evictions (back-invalidation / rehoming) with live sharers.
    pool = geom.bank_pool(0, 12)
    steps = []
    for addr in pool:
        steps += [R(0, addr), R(1, addr)]
    steps += [W(2, pool[0]), R(3, pool[1]), W(0, pool[2]), R(1, pool[0])]
    return steps


def _llc_eviction_of_tracked(geom: Geometry):
    a = 10
    steps = [R(0, a), R(1, a)]  # shared -> tracked (corrupted line / tiny)
    # Overflow A's LLC set from core 2: the tracked line is evicted and
    # its holders must be back-invalidated.
    steps += [R(2, x) for x in geom.llc_conflicts(a, geom.llc_assoc + 1)]
    steps += [W(0, a), R(1, a)]
    return steps


def _spill_recall(geom: Geometry):
    # More shared blocks in one bank than the tiny directory holds:
    # allocation declines/evictions push entries toward spilled LLC
    # ways; a write to a spilled block must unspill it.
    pool = geom.bank_pool(0, 8)
    steps = []
    for _ in range(3):
        for addr in pool:
            steps += [R(0, addr), R(1, addr), R(2, addr)]
    steps += [W(3, pool[0]), R(0, pool[0]), W(0, pool[1]), R(2, pool[1])]
    return steps


def _stash_recovery(geom: Geometry):
    # Exclusive blocks overflowing one bank's directory are stashed
    # (dropped without invalidation); a later read by another core must
    # recover the owner by broadcast.
    pool = geom.bank_pool(0, 12)
    steps = [W(0, addr) for addr in pool]
    steps += [R(1, pool[0]), R(2, pool[1]), W(1, pool[2]), R(0, pool[0])]
    return steps


def _mgd_region_demotion(geom: Geometry):
    # One core privately owns a whole region (one region entry); a
    # second core touching it demotes the region to block entries.
    region = [16 * 4 + k for k in range(6)]  # blocks of one 1 KB region
    steps = [W(0, addr) for addr in region]
    steps += [R(1, region[2]), R(1, region[3]), W(1, region[0]), R(0, region[2])]
    return steps


def _capacity_churn(geom: Geometry):
    # Stream far past LLC capacity from two cores while two others
    # pin shared hot blocks: exercises eviction/writeback interleaving
    # with live sharers across every scheme.
    hot = [11, 12]
    steps = [R(2, hot[0]), R(3, hot[0]), R(2, hot[1]), R(3, hot[1])]
    stride = geom.num_banks * geom.llc_sets
    for k in range(geom.llc_assoc + 2):
        steps += [W(0, 13 + stride * k), R(1, 14 + stride * k)]
    steps += [W(2, hot[0]), R(3, hot[1]), R(2, hot[1]), W(3, hot[1])]
    return steps


#: The curated library.
LITMUS_TESTS: "tuple[LitmusTest, ...]" = (
    LitmusTest("store_buffering", "SB-shaped write/read race", _store_buffering),
    LitmusTest("message_passing", "MP handoff through a flag", _message_passing),
    LitmusTest("ownership_ping_pong", "M-state migration between writers", _ownership_ping_pong),
    LitmusTest("upgrade_race", "S->M upgrades against readers", _upgrade_race),
    LitmusTest("ifetch_sharing", "instruction-read sharing then write", _ifetch_sharing),
    LitmusTest("writeback_crossing", "dirty L2 eviction crossing a remote read", _writeback_crossing),
    LitmusTest("eviction_under_sharing", "silent S eviction with live sharers", _eviction_under_sharing),
    LitmusTest("directory_pressure", "tracker evictions with live sharers", _directory_pressure),
    LitmusTest("llc_eviction_of_tracked", "LLC eviction of a tracked line", _llc_eviction_of_tracked),
    LitmusTest("capacity_churn", "capacity streaming around pinned shared blocks", _capacity_churn),
    LitmusTest("spill_recall", "tiny-directory spill then unspill under pressure",
               _spill_recall, schemes=("tiny",)),
    LitmusTest("stash_recovery", "stash drop and broadcast recovery",
               _stash_recovery, schemes=("stash",)),
    LitmusTest("mgd_region_demotion", "private region demoted by a second core",
               _mgd_region_demotion, schemes=("mgd",)),
)


@dataclass
class LitmusOutcome:
    """Result of one (test, scheme) litmus run."""

    test: str
    scheme: str
    passed: bool
    violation: "str | None" = None
    steps: int = 0


def run_litmus(
    schemes: "dict[str, object]",
    coverage: "dict[str, CoverageMap] | None" = None,
    tests: "tuple[LitmusTest, ...]" = LITMUS_TESTS,
    trace_out: "str | None" = None,
) -> "list[LitmusOutcome]":
    """Run every applicable (test, scheme) pair; returns all outcomes.

    ``coverage`` maps scheme name to a :class:`CoverageMap` that
    accumulates transitions across the scheme's tests; with
    ``trace_out``, every run appends its JSONL event trace there.
    """
    outcomes = []
    for scheme_name, spec in schemes.items():
        for test in tests:
            if not test.applies_to(scheme_name):
                continue
            system = build_system(spec, LITMUS_CORES, LITMUS_L1_KB, LITMUS_L2_KB)
            steps = test.build(geometry_of(system))
            cmap = coverage.get(scheme_name) if coverage is not None else None
            result = run_schedule(
                steps,
                system=system,
                audit_interval=1,  # invariants after every step
                oracle=True,
                coverage=cmap,
                trace_out=trace_out,
            )
            outcomes.append(
                LitmusOutcome(
                    test=test.name,
                    scheme=scheme_name,
                    passed=not result.failed,
                    violation=result.violation,
                    steps=len(steps),
                )
            )
    return outcomes
