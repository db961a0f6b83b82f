"""Deterministic, seeded fault injection for the coherence protocols.

A :class:`FaultPlan` declares *what* to break and *when* ("after access
N, drop core C's copy of block A / flip a sharer bit / lose an eviction
notice / corrupt a tracking entry"); a :class:`FaultInjector` built from
the plan plugs into :class:`~repro.sim.system.System` and applies each
fault at the declared point in the access stream, whatever
coherence-tracking scheme the system runs (sparse, in-LLC, tiny,
MGD, Stash). Faults with an unspecified address or core resolve their
target deterministically from the plan's seed, so a failing run can
always be replayed exactly.

The injector corrupts state the same way a real hardware fault (or a
protocol bug) would: behind the protocol's back, without adjusting any
other structure. The online :class:`~repro.resilience.auditor.
ProtocolAuditor` — or a post-hoc ``System.check_invariants()`` — is what
must notice.
"""

from __future__ import annotations

import enum
import os
import random
import sys
from dataclasses import dataclass

from repro.errors import FaultInjectionError


class FaultKind(enum.Enum):
    """What kind of corruption to inject."""

    #: A core silently loses its private copy (no eviction notice), so
    #: every tracking structure that records the copy goes stale.
    DROP_PRIVATE_COPY = "drop_private_copy"
    #: Toggle one core's bit in the block's tracking record: a real
    #: holder becomes untracked, or a phantom sharer appears.
    FLIP_SHARER_BIT = "flip_sharer_bit"
    #: Swallow the next matching eviction notice before the home
    #: controller sees it, leaving a stale tracking entry behind.
    LOSE_EVICTION_NOTICE = "lose_eviction_notice"
    #: Clear the block's tracking record wherever it lives (directory
    #: entry, corrupted LLC line, spilled entry, ...), orphaning every
    #: private copy.
    CORRUPT_DIRECTORY_ENTRY = "corrupt_directory_entry"
    #: Mangle the block's tiny-directory entry specifically (rotate the
    #: recorded owner / flip a phantom sharer in).
    CORRUPT_TINY_ENTRY = "corrupt_tiny_entry"


@dataclass(frozen=True)
class Fault:
    """One declarative fault.

    ``after_access`` is the global access count at which the fault
    fires (it applies once the system has completed that many accesses).
    ``addr``/``core`` may be None, in which case the injector picks a
    live target with the plan's seeded RNG.
    """

    kind: FaultKind
    after_access: int = 1
    addr: "int | None" = None
    core: "int | None" = None


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, replayable set of faults."""

    faults: "tuple[Fault, ...]" = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))


@dataclass
class InjectedFault:
    """Record of one fault that was actually applied."""

    kind: FaultKind
    addr: int
    core: "int | None"
    access_index: int
    location: str = ""


def tracking_location(home, addr: int):
    """Where ``addr``'s tracking info currently lives: ``(label, coh)``.

    Returns ``(None, None)`` when no structure holds a
    :class:`~repro.coherence.info.CohInfo` for the block (untracked, or
    tracked only by an MGD region entry). Uses only quiet lookups, so
    probing never perturbs simulation statistics.
    """
    tiny = getattr(home, "tiny", None)
    if tiny is not None:
        entry = tiny.find_quiet(addr)
        if entry is not None and not entry.coh.is_idle:
            return "tiny", entry.coh
    directory = getattr(home, "directory", None)
    if directory is not None:
        if hasattr(directory, "peek"):
            coh = directory.peek(addr)
            if coh is not None and not coh.is_idle:
                return "directory", coh
        elif hasattr(directory, "lookup_block"):
            coh = directory.lookup_block(addr, touch=False)
            if coh is not None and not coh.is_idle:
                return "mgd-block", coh
    unbounded = getattr(home, "_unbounded", None)
    if unbounded is not None:
        coh = unbounded.get(addr)
        if coh is not None and not coh.is_idle:
            return "unbounded", coh
    bank = home.banks[home.bank_of(addr)]
    line, spill = bank.peek(addr)
    if spill is not None and spill.coh is not None and not spill.coh.is_idle:
        return "spill", spill.coh
    if line is not None and line.coh is not None and not line.coh.is_idle:
        return "llc-line", line.coh
    return None, None


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running :class:`System`.

    Construct one and pass it to ``System(config,
    fault_injector=injector)``; the system calls :meth:`on_access` after
    every completed access and :meth:`intercept_eviction` for every
    eviction notice. Applied faults accumulate in :attr:`injected`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self._pending = sorted(plan.faults, key=lambda f: f.after_access)
        #: Armed LOSE_EVICTION_NOTICE faults waiting for a matching notice.
        self._armed_notices: "list[Fault]" = []
        self.injected: "list[InjectedFault]" = []
        self.system = None

    # ------------------------------------------------------------------
    # System hooks
    # ------------------------------------------------------------------

    def attach(self, system) -> None:
        self.system = system

    def on_access(self, system) -> None:
        """Apply every fault whose firing point has been reached."""
        n = system.access_index
        while self._pending and self._pending[0].after_access <= n:
            self._apply(system, self._pending.pop(0))

    def flush(self, system) -> None:
        """Apply all remaining scheduled faults immediately (tests)."""
        while self._pending:
            self._apply(system, self._pending.pop(0))

    def apply_now(self, system, fault: Fault) -> None:
        """Apply one fault immediately, outside the plan's schedule.

        This is how the verify harness fires fault *pseudo-steps*
        embedded in a schedule: the fault's ``after_access`` is ignored
        and it goes through the same application (and, for
        LOSE_EVICTION_NOTICE, arming) path as planned faults.
        """
        self._apply(system, fault)

    def intercept_eviction(self, core: int, addr: int) -> bool:
        """True when an armed fault swallows this eviction notice."""
        for index, fault in enumerate(self._armed_notices):
            if fault.core is not None and fault.core != core:
                continue
            if fault.addr is not None and fault.addr != addr:
                continue
            del self._armed_notices[index]
            self._note(FaultKind.LOSE_EVICTION_NOTICE, addr, core, "notice-swallowed")
            return True
        return False

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------

    def _apply(self, system, fault: Fault) -> None:
        if fault.kind is FaultKind.LOSE_EVICTION_NOTICE:
            self._armed_notices.append(fault)
            return
        addr = (
            fault.addr
            if fault.addr is not None
            else self._pick_addr(system, fault.kind)
        )
        home = system.home
        if fault.kind is FaultKind.DROP_PRIVATE_COPY:
            self._drop_private_copy(system, fault, addr)
        elif fault.kind is FaultKind.FLIP_SHARER_BIT:
            self._flip_sharer_bit(system, fault, addr)
        elif fault.kind is FaultKind.CORRUPT_DIRECTORY_ENTRY:
            self._corrupt_directory_entry(system, fault, addr)
        elif fault.kind is FaultKind.CORRUPT_TINY_ENTRY:
            self._corrupt_tiny_entry(system, fault, addr)
        else:  # pragma: no cover - exhaustive enum
            raise FaultInjectionError(f"unknown fault kind {fault.kind!r}")

    def _drop_private_copy(self, system, fault: Fault, addr: int) -> None:
        from repro.types import PrivateState

        core = fault.core
        if core is None:
            holders = [c.core_id for c in system.cores if c.holds(addr)]
            if not holders:
                raise FaultInjectionError(
                    f"no core holds block {addr:#x}; cannot drop a copy"
                )
            core = self.rng.choice(sorted(holders))
        prior = system.cores[core].invalidate(addr)
        if prior is PrivateState.INVALID:
            raise FaultInjectionError(
                f"core {core} does not hold block {addr:#x}; cannot drop it"
            )
        self._note(fault.kind, addr, core, f"was={prior.name}")

    def _flip_sharer_bit(self, system, fault: Fault, addr: int) -> None:
        label, coh = tracking_location(system.home, addr)
        if coh is None:
            raise FaultInjectionError(
                f"block {addr:#x} has no tracking entry; cannot flip a bit"
            )
        core = fault.core
        if core is None:
            outsiders = sorted(
                set(range(system.config.num_cores)) - set(coh.holders())
            )
            if not outsiders:
                raise FaultInjectionError(
                    f"every core already holds {addr:#x}; no bit to flip in"
                )
            core = self.rng.choice(outsiders)
        if coh.holds(core):
            coh.remove(core)
            action = "cleared"
        else:
            coh.add_sharer(core)
            action = "set"
        self._note(fault.kind, addr, core, f"{label}:{action}")

    def _corrupt_directory_entry(self, system, fault: Fault, addr: int) -> None:
        label, coh = tracking_location(system.home, addr)
        if coh is None:
            raise FaultInjectionError(
                f"block {addr:#x} has no tracking entry to corrupt"
            )
        if label in ("directory", "mgd-block", "unbounded"):
            # Dedicated tracking structure: wipe the record, orphaning
            # every private copy (the reverse audit check notices).
            coh.clear()
            phantom = None
            detail = label
        else:
            # Fused tracking (tiny entry, corrupted LLC line, spilled
            # entry): the record doubles as the line's protocol state, so
            # mangle it into a phantom instead of emptying it — exactly
            # what a bit flip in the borrowed tracking bits would do.
            phantom, detail = self._mangle(system, fault, coh)
            detail = f"{label}:{detail}"
        self._note(fault.kind, addr, phantom, detail)

    def _corrupt_tiny_entry(self, system, fault: Fault, addr: int) -> None:
        tiny = getattr(system.home, "tiny", None)
        if tiny is None:
            raise FaultInjectionError("the selected scheme has no tiny directory")
        entry = tiny.find_quiet(addr)
        if entry is None:
            raise FaultInjectionError(
                f"block {addr:#x} is not tracked by the tiny directory"
            )
        phantom, detail = self._mangle(system, fault, entry.coh)
        self._note(fault.kind, addr, phantom, detail)

    def _mangle(self, system, fault: Fault, coh):
        """Corrupt ``coh`` into a phantom owner/sharer; returns (core, detail)."""
        num_cores = system.config.num_cores
        if coh.is_exclusive:
            phantom = (coh.owner + 1) % num_cores
            coh.set_owner(phantom)
            return phantom, f"owner-rotated-to-{phantom}"
        phantom = fault.core
        if phantom is None:
            outsiders = sorted(set(range(num_cores)) - set(coh.holders()))
            phantom = self.rng.choice(outsiders) if outsiders else 0
        coh.sharers ^= 1 << phantom
        return phantom, f"sharer-bit-{phantom}-flipped"

    # ------------------------------------------------------------------
    # Target resolution and bookkeeping
    # ------------------------------------------------------------------

    def _pick_addr(self, system, kind: FaultKind) -> int:
        """Pick a live target address for ``kind``, seeded.

        Candidates are the privately cached blocks; kinds that mutate a
        tracking record are further restricted to blocks that actually
        have one (under Stash or a tiny directory most resident blocks
        are legitimately untracked).
        """
        candidates = sorted(
            {addr for core in system.cores for addr, _ in core.resident_blocks()}
        )
        if kind in (FaultKind.FLIP_SHARER_BIT, FaultKind.CORRUPT_DIRECTORY_ENTRY):
            candidates = [
                addr
                for addr in candidates
                if tracking_location(system.home, addr)[1] is not None
            ]
        elif kind is FaultKind.CORRUPT_TINY_ENTRY:
            tiny = getattr(system.home, "tiny", None)
            if tiny is None:
                raise FaultInjectionError(
                    "the selected scheme has no tiny directory"
                )
            candidates = [
                addr for addr in candidates if tiny.find_quiet(addr) is not None
            ]
        if not candidates:
            raise FaultInjectionError(
                f"no live target block for fault kind {kind.value!r}"
            )
        return self.rng.choice(candidates)

    def _note(self, kind: FaultKind, addr: int, core: "int | None", location: str) -> None:
        index = self.system.access_index if self.system is not None else 0
        self.injected.append(InjectedFault(kind, addr, core, index, location))
        if self.system is not None:
            observer = self.system.home.observer
            if observer.enabled:
                observer.emit(
                    f"fault:{kind.value}", core=core, addr=addr, location=location
                )


def plan_from_env() -> "FaultPlan | None":
    """Build a :class:`FaultPlan` from ``REPRO_FAULTS``, or None.

    ``REPRO_FAULTS`` is a comma-separated list of ``kind@after_access``
    entries (e.g. ``corrupt_directory_entry@8000,flip_sharer_bit@12000``;
    ``@after_access`` defaults to 1), with the target address/core left
    to the plan's seeded RNG. ``REPRO_FAULT_SEED`` (integer, default 0)
    seeds target resolution. Malformed entries warn on stderr and
    disable injection entirely — a chaos run must never silently turn
    into a clean run.
    """
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw or raw.lower() in ("off", "0", "no", "false", "none"):
        return None

    def _reject(reason: str) -> None:
        print(
            f"repro: ignoring invalid REPRO_FAULTS={raw!r} ({reason}); "
            f"fault injection is DISABLED",
            file=sys.stderr,
        )

    faults = []
    for item in raw.split(","):
        item = item.strip().lower()
        if not item:
            continue
        name, _, position = item.partition("@")
        try:
            kind = FaultKind(name)
        except ValueError:
            _reject(f"unknown fault kind {name!r}")
            return None
        after_access = 1
        if position:
            try:
                after_access = int(position)
            except ValueError:
                after_access = -1
            if after_access < 0:
                _reject(f"bad access position {position!r}")
                return None
        faults.append(Fault(kind, after_access=after_access))
    if not faults:
        _reject("no faults listed")
        return None
    seed_raw = os.environ.get("REPRO_FAULT_SEED", "").strip()
    seed = 0
    if seed_raw:
        try:
            seed = int(seed_raw)
        except ValueError:
            _reject(f"bad REPRO_FAULT_SEED {seed_raw!r}")
            return None
    return FaultPlan(faults=tuple(faults), seed=seed)


def injector_from_env() -> "FaultInjector | None":
    """A :class:`FaultInjector` over :func:`plan_from_env`, or None."""
    plan = plan_from_env()
    if plan is None:
        return None
    return FaultInjector(plan)
