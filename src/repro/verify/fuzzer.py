"""Seeded random-walk fuzzer with delta-debugging shrinking.

The fuzzer generates adversarial concurrent schedules in *rounds*,
each round drawn from one bias profile (contended hot blocks,
one-bank tracker pressure, capacity streaming, code sharing, shared
reads that drive tiny-directory spilling, ...). When transition
coverage is being collected, the profile for the next round is chosen
by which profile targets the most still-uncovered transitions, so long
runs steer themselves toward the protocol corners they have not
exercised yet.

Runs execute under the full verify harness — value oracle, auditor
forced on — and a failing schedule is shrunk with ddmin
(delta debugging) to a 1-minimal reproducer. Faults travel *inside*
the schedule as :class:`~repro.verify.steps.FaultStep` pseudo-steps, so
the shrinker reduces the fault position and its setup together; before
shrinking, fault steps are pinned to the concrete target the failing
run resolved (from the injector's :class:`InjectedFault` records).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.resilience.faults import FaultKind, FaultPlan
from repro.verify.coverage import KNOWN_TRANSITIONS, CoverageMap
from repro.verify.harness import (
    DEFAULT_VERIFY_AUDIT_INTERVAL,
    ScheduleResult,
    run_schedule,
)
from repro.verify.steps import AccessStep, FaultStep, merge_plan

#: Steps per steering round.
ROUND_STEPS = 400


@dataclass(frozen=True)
class BiasProfile:
    """One schedule-generation bias."""

    name: str
    #: (pool builder, write fraction, ifetch fraction). The pool builder
    #: receives (config, rng) and returns candidate block addresses.
    pool: "callable"
    write_frac: float
    ifetch_frac: float
    #: Transition-label prefixes this profile is good at reaching.
    targets: "tuple[str, ...]"
    #: Optional structured generator ``(config, rng, steps, round_index)
    #: -> list[AccessStep]`` replacing the uniform pool draw, for
    #: profiles whose target transitions need phased pressure rather
    #: than a stationary access mix.
    gen: "callable | None" = None


def _pool_contended(config, rng):
    return list(range(1, 9))


def _pool_shared(config, rng):
    return list(range(1, 65))


def _pool_bank_pressure(config, rng):
    # Every address homed at bank 0: tracker sets there overflow fast.
    return [config.num_banks * k for k in range(1, 49)]


def _pool_capacity(config, rng):
    return list(range(1, 4 * config.llc_blocks))


def _pool_code(config, rng):
    return list(range(256, 256 + 24))


def _gen_spill(config, rng, steps, round_index):
    """Phased spill pressure (tiny scheme; harmless bank churn elsewhere).

    Spilling needs blocks whose STRA category clears the admission
    threshold *while* their tiny-directory set is overflowing: the first
    ~5/8 of the round pumps shared reads over a 200-block one-bank pool
    (bank-0 blocks collide into a handful of private-L2 sets, so copies
    keep getting evicted and re-read — each LLC re-read finding the
    block shared drives STRAC up). The tail aims a conflict stream at a
    single LLC set, evicting freshly-spilled entries and the data lines
    under tiny-tracked blocks while their sharers are still live — the
    only way to reach spill recall, back-invalidation of untracked
    blocks, and forwarded refills.
    """
    banks = config.num_banks
    llc_sets = config.llc_sets_per_bank
    stride = banks * llc_sets
    cores = config.num_cores
    hot = [banks * k for k in range(1, 201)]
    out = []
    split = (steps * 5) // 8
    for _ in range(split):
        kind = "write" if rng.random() < 0.05 else "read"
        out.append(AccessStep(rng.randrange(cores), rng.choice(hot), kind))
    target_set = 1 + (round_index % (llc_sets - 1)) if llc_sets > 1 else 0
    conflict = [banks * target_set + stride * j for j in range(24)]
    for _ in range(steps - split):
        kind = "write" if rng.random() < 0.08 else "read"
        out.append(AccessStep(rng.randrange(cores), rng.choice(conflict), kind))
    return out


PROFILES: "tuple[BiasProfile, ...]" = (
    BiasProfile(
        "contended", _pool_contended, 0.45, 0.05,
        ("mesi:", "inval:", "dir:upgrade", "dir:write_shared", "dir:fwd_exclusive"),
    ),
    BiasProfile(
        "shared", _pool_shared, 0.10, 0.05,
        ("dir:alloc", "dir:drop", "tiny:hit", "tiny:alloc", "llc:mark_tracked",
         "llc:lengthened_read", "llc:restore"),
    ),
    BiasProfile(
        "bank_pressure", _pool_bank_pressure, 0.25, 0.05,
        ("dir:evict", "dir:back_invalidate", "tiny:evict", "tiny:decline",
         "tiny:rehome_corrupt", "tiny:rehome_spill", "mgd:", "stash:"),
    ),
    BiasProfile(
        "capacity", _pool_capacity, 0.30, 0.00,
        ("llc:evict_tracked", "llc:evict_dirty",
         "mgd:evict_region", "mgd:region_shrink", "stash:unstash"),
    ),
    BiasProfile(
        "code", _pool_code, 0.02, 0.70,
        ("mesi:I->S:ifetch", "mesi:S->S:ifetch"),
    ),
    BiasProfile(
        "spill", _pool_bank_pressure, 0.06, 0.02,
        ("tiny:spill", "tiny:spill_hit", "tiny:unspill", "tiny:rehome_spill",
         "tiny:fwd_refill", "tiny:recall", "llc:back_invalidate"),
        gen=_gen_spill,
    ),
)


def _profile_score(profile: BiasProfile, uncovered: "set[str]") -> int:
    return sum(
        1
        for transition in uncovered
        if any(transition.startswith(prefix) for prefix in profile.targets)
    )


def _pick_profile(rng, scheme: str, covered: "set[str]", round_index: int) -> BiasProfile:
    uncovered = set(KNOWN_TRANSITIONS.get(scheme, ())) - covered
    if not uncovered or round_index == 0:
        return PROFILES[round_index % len(PROFILES)]
    best = max(PROFILES, key=lambda p: (_profile_score(p, uncovered), p.name))
    if _profile_score(best, uncovered) == 0:
        return PROFILES[round_index % len(PROFILES)]
    return best


def generate_round(
    config, rng, profile: BiasProfile, steps: int, round_index: int = 0
) -> "list[AccessStep]":
    if profile.gen is not None:
        return profile.gen(config, rng, steps, round_index)
    pool = profile.pool(config, rng)
    cores = config.num_cores
    out = []
    for _ in range(steps):
        roll = rng.random()
        if roll < profile.write_frac:
            kind = "write"
        elif roll < profile.write_frac + profile.ifetch_frac:
            kind = "ifetch"
        else:
            kind = "read"
        out.append(AccessStep(rng.randrange(cores), rng.choice(pool), kind))
    return out


# ----------------------------------------------------------------------
# Fault-plan mutation source
# ----------------------------------------------------------------------

def fault_plan_for(scheme: str, seed: int, index: int) -> FaultPlan:
    """A deterministic single-fault plan for mutation run ``index``.

    Kinds cycle over everything applicable to the scheme; the firing
    point lands early in the schedule (detection and shrinking stay
    fast) and just before an audit-window boundary, so a corruption
    that nothing trips over inline is still caught by the next audit
    before the access stream can coincidentally repair it (e.g. a
    phantom sharer turning real because that core happens to read the
    block). Targets are left unresolved — the injector picks a live
    block when the fault fires, and the fuzzer pins the resolved target
    before shrinking.
    """
    # LOSE_EVICTION_NOTICE is deliberately absent: it only *arms* a trap
    # that fires on the next private eviction, and at fuzz geometry the
    # private hierarchies are roomy enough that the trap frequently
    # never springs — a mutated run whose fault never materialized
    # proves nothing. The three kinds below corrupt state immediately.
    kinds = [
        FaultKind.DROP_PRIVATE_COPY,
        FaultKind.FLIP_SHARER_BIT,
        FaultKind.CORRUPT_DIRECTORY_ENTRY,
    ]
    if scheme == "tiny":
        kinds.append(FaultKind.CORRUPT_TINY_ENTRY)
    rng = random.Random(f"fault:{scheme}:{seed}:{index}")
    kind = kinds[index % len(kinds)]
    window = DEFAULT_VERIFY_AUDIT_INTERVAL
    position = window * rng.randrange(1, 6) - 1
    from repro.resilience.faults import Fault

    return FaultPlan((Fault(kind, after_access=position),), seed=seed * 1000 + index)


# ----------------------------------------------------------------------
# Fuzz runs
# ----------------------------------------------------------------------

@dataclass
class FuzzResult:
    """Everything one fuzz run produced."""

    scheme: str
    seed: int
    steps: int
    violation: "str | None" = None
    fail_step: "int | None" = None
    #: The 1-minimal failing schedule (empty for clean runs).
    reproducer: "list" = field(default_factory=list)
    coverage_counts: "dict[str, int]" = field(default_factory=dict)
    injected: "list[str]" = field(default_factory=list)
    shrink_replays: int = 0

    @property
    def failed(self) -> bool:
        return self.violation is not None

    @property
    def detected(self) -> bool:
        """For fault-mutated runs: the corruption was caught."""
        return self.failed


def _pin_faults(steps, injected) -> "list":
    """Replace unresolved fault steps with the concrete targets the
    failing run resolved, so shrink replays stay deterministic."""
    records = list(injected)
    pinned = []
    for step in steps:
        if isinstance(step, FaultStep) and (step.addr is None or step.core is None):
            if records:
                record = records.pop(0)
                step = FaultStep(step.kind, record.addr, record.core)
        pinned.append(step)
    return pinned


def ddmin(failing_steps: "list", test, max_replays: int = 1200) -> "tuple[list, int]":
    """Classic ddmin: reduce ``failing_steps`` to a 1-minimal failing
    subsequence. ``test(steps) -> bool`` is True while still failing.
    Returns (minimal steps, replays used)."""
    steps = list(failing_steps)
    replays = 0
    granularity = 2
    while len(steps) >= 2 and replays < max_replays:
        chunk = max(1, len(steps) // granularity)
        reduced = False
        for start in range(0, len(steps), chunk):
            candidate = steps[:start] + steps[start + chunk:]
            if not candidate:
                continue
            replays += 1
            if test(candidate):
                steps = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if replays >= max_replays:
                break
        if not reduced:
            if granularity >= len(steps):
                break
            granularity = min(len(steps), 2 * granularity)
    # Polish to 1-minimality: drop single steps while any drop still fails.
    polished = True
    while polished and replays < max_replays:
        polished = False
        for index in range(len(steps) - 1, -1, -1):
            candidate = steps[:index] + steps[index + 1:]
            if not candidate:
                continue
            replays += 1
            if test(candidate):
                steps = candidate
                polished = True
            if replays >= max_replays:
                break
    return steps, replays


def fuzz_run(
    scheme: str,
    spec,
    *,
    steps: int = 2000,
    seed: int = 7,
    num_cores: int = 16,
    l1_kb: int = 8,
    l2_kb: int = 32,
    audit_interval: int = DEFAULT_VERIFY_AUDIT_INTERVAL,
    plan: "FaultPlan | None" = None,
    collect_coverage: bool = True,
    shrink: bool = True,
    trace_out: "str | None" = None,
) -> FuzzResult:
    """One seeded fuzz run (optionally fault-mutated), with shrinking.

    The schedule is generated round by round; with coverage on, each
    round's bias profile is steered toward uncovered transitions by
    running the growing schedule incrementally. On failure the
    triggering prefix is shrunk to a minimal reproducer. With
    ``trace_out``, every schedule run (steering probes and shrink
    replays included) appends its JSONL event trace there.
    """
    from repro.sim.config import SystemConfig

    config = SystemConfig(num_cores=num_cores, l1_kb=l1_kb, l2_kb=l2_kb, scheme=spec)
    rng = random.Random(f"fuzz:{scheme}:{seed}")
    schedule: "list" = []
    coverage = CoverageMap() if collect_coverage else None
    covered: "set[str]" = set()
    round_index = 0
    generated = 0
    while generated < steps:
        profile = _pick_profile(rng, scheme, covered, round_index)
        size = min(ROUND_STEPS, steps - generated)
        schedule.extend(generate_round(config, rng, profile, size, round_index))
        generated += size
        round_index += 1
        if coverage is not None and generated < steps:
            # Steering probe: run the schedule so far on a throwaway
            # system to learn what is covered. Deterministic and cheap
            # relative to the protocol work it saves the long tail.
            probe = CoverageMap()
            probe_result = run_schedule(
                merge_plan(schedule, plan) if plan is not None else schedule,
                spec=spec, num_cores=num_cores, l1_kb=l1_kb, l2_kb=l2_kb,
                seed=seed, audit_interval=audit_interval, coverage=probe,
                trace_out=trace_out,
            )
            covered = probe.covered()
            if probe_result.failed:
                break

    full = merge_plan(schedule, plan) if plan is not None else list(schedule)
    result = run_schedule(
        full,
        spec=spec, num_cores=num_cores, l1_kb=l1_kb, l2_kb=l2_kb,
        seed=seed, audit_interval=audit_interval, coverage=coverage,
        trace_out=trace_out,
    )
    out = FuzzResult(
        scheme=scheme,
        seed=seed,
        steps=len(full),
        violation=result.violation,
        fail_step=result.fail_step,
        coverage_counts=dict(coverage.counts) if coverage is not None else {},
        injected=[
            f"{record.kind.value}@{record.addr:#x}" for record in result.injected
        ],
    )
    if not result.failed or not shrink:
        return out

    prefix = _pin_faults(full[: result.fail_step + 1], result.injected)

    def still_fails(candidate) -> bool:
        replay = run_schedule(
            candidate,
            spec=spec, num_cores=num_cores, l1_kb=l1_kb, l2_kb=l2_kb,
            seed=seed, audit_interval=audit_interval, oracle=True,
            trace_out=trace_out,
        )
        return replay.failed

    minimal, replays = ddmin(prefix, still_fails)
    out.reproducer = minimal
    out.shrink_replays = replays
    return out


def fuzz_task(payload: dict) -> dict:
    """Top-level pool task for :func:`repro.parallel.run_tasks`.

    ``payload`` carries the :func:`fuzz_run` arguments (spec and plan
    as picklable objects); the result is a plain dict so the parent
    can aggregate without importing worker state.
    """
    result = fuzz_run(
        payload["scheme"],
        payload["spec"],
        steps=payload.get("steps", 2000),
        seed=payload.get("seed", 7),
        num_cores=payload.get("num_cores", 16),
        l1_kb=payload.get("l1_kb", 8),
        l2_kb=payload.get("l2_kb", 32),
        audit_interval=payload.get("audit_interval", DEFAULT_VERIFY_AUDIT_INTERVAL),
        plan=payload.get("plan"),
        collect_coverage=payload.get("collect_coverage", True),
        trace_out=payload.get("trace_out"),
    )
    from repro.verify.steps import step_to_dict

    return {
        "scheme": result.scheme,
        "seed": result.seed,
        "steps": result.steps,
        "violation": result.violation,
        "fail_step": result.fail_step,
        "reproducer": [step_to_dict(step) for step in result.reproducer],
        "coverage_counts": result.coverage_counts,
        "injected": result.injected,
        "shrink_replays": result.shrink_replays,
    }
