"""Home controllers for the sparse-directory scheme family.

:class:`SparseHome` implements the baseline write-invalidate MESI home
node with a sparse directory (Section II / Fig. 1 of the paper). Three
small hook methods — :meth:`_find`, :meth:`_install`, :meth:`_drop` —
abstract where tracking information lives, so the competing organizations
are subclasses:

* :class:`SharedOnlyHome` — the Fig. 3 idealized design: only shared
  blocks occupy the limited directory; private/exclusive blocks live in a
  zero-cost unbounded structure.
* :class:`StashHome` — Stash directory [14]: private entries are dropped
  without invalidation and recovered by broadcast on later sharing.
* :class:`MgdHome` — multi-grain directory [47]: one entry per private
  1 KB region, block-grain entries for shared data.
"""

from __future__ import annotations

from repro.coherence.base import BaseHome
from repro.coherence.info import CohInfo
from repro.directory.mgd import BLOCKS_PER_REGION, MultiGrainDirectory, RegionEntry
from repro.directory.stash import StashState
from repro.errors import InvariantViolation, ProtocolError
from repro.interconnect.traffic import COHERENCE, PROCESSOR, WRITEBACK
from repro.types import (
    EXCLUSIVE,
    IFETCH,
    INVALID,
    LLC_CLEAN,
    LLC_DIRTY,
    LLC_INVALID,
    MODIFIED,
    SHARED,
    WRITE,
    AccessKind,
    LLCState,
    PrivateState,
)


class SparseHome(BaseHome):
    """Baseline MESI home node with a sparse directory."""

    __slots__ = ("directory",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats)
        self.directory = directory

    # ------------------------------------------------------------------
    # Tracking hooks (overridden by scheme variants)
    # ------------------------------------------------------------------

    def _find(self, addr: int, core: int, now: int) -> "CohInfo | None":
        """Locate the tracking info for ``addr``, or None if untracked."""
        return self.directory.lookup(addr)

    def _install(self, addr: int, coh: CohInfo, now: int) -> None:
        """Start tracking ``addr``; back-invalidates any directory victim."""
        victim = self.directory.allocate(addr, coh)
        if self.observer.enabled:
            self.observer.emit("dir:alloc", cycle=now, addr=addr)
            if victim is not None:
                self.observer.emit("dir:evict", cycle=now, addr=victim[0])
        if victim is not None:
            self._back_invalidate(*victim, now)

    def _drop(self, addr: int, coh: CohInfo, now: int) -> None:
        """Stop tracking ``addr`` (no private copies remain)."""
        if self.observer.enabled:
            self.observer.emit("dir:drop", cycle=now, addr=addr)
        self.directory.remove(addr)

    def _after_update(self, addr: int, coh: CohInfo, now: int) -> None:
        """Hook called after mutating a tracked block's CohInfo."""
        if coh.is_idle:
            self._drop(addr, coh, now)

    def _back_invalidate(self, addr: int, coh: CohInfo, now: int) -> None:
        """Invalidate every private copy of an evicted tracking entry."""
        if self.observer.enabled:
            self.observer.emit(
                "dir:back_invalidate", cycle=now, addr=addr, holders=coh.holders()
            )
        self.stats.back_invalidations += len(coh.holders())
        self._invalidate_holders(addr, coh, now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr: int, truth: CohInfo, now: int = 0) -> str:
        """Repair the directory entry for ``addr`` against ``truth``."""
        coh = self.directory.peek(addr)
        if truth.is_idle:
            if coh is None:
                return "directory:already-absent"
            self.directory.remove(addr)
            return "directory:removed"
        if coh is not None:
            coh.owner = truth.owner
            coh.sharers = truth.sharers
            return "directory:rewritten"
        self._install(addr, truth.copy(), now)
        return "directory:reinstalled"

    # ------------------------------------------------------------------
    # LLC helpers
    # ------------------------------------------------------------------

    def _fill_llc(self, addr: int, state: LLCState, now: int):
        bank = self.banks[addr % self.num_banks]
        line, victim = bank.insert_block(addr, state)
        if victim is not None:
            self._handle_llc_victim(victim, now)
        return line

    def _handle_llc_victim(self, victim, now: int) -> None:
        self._flush_residency(victim)
        if victim.state is LLC_DIRTY:
            self._dram_write(victim.tag, now)

    def _ensure_llc_data(self, addr: int, dirty: bool, now: int) -> None:
        """Deposit written-back data into the LLC (allocate on absence)."""
        bank = self.banks[addr % self.num_banks]
        line, _ = bank.lookup(addr, touch=False)
        if line is None:
            self._fill_llc(addr, LLC_DIRTY if dirty else LLC_CLEAN, now)
        else:
            if dirty:
                line.state = LLC_DIRTY
            bank.data_writes += 1

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------

    def handle_access(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        now: int,
        upgrade: bool = False,
    ) -> "tuple[int, PrivateState | None]":
        stats = self.stats
        stats.llc_transactions += 1
        home = addr % self.num_banks
        bank = self.banks[home]
        if self.observer.enabled:
            self.observer.emit(
                "req:upgrade" if upgrade else f"req:{kind.name.lower()}",
                cycle=now, core=core, addr=addr,
            )
        self.traffic.control(PROCESSOR)  # the request
        coh = self._find(addr, core, now)
        line, _ = bank.lookup(addr)

        if upgrade:
            stats.upgrades += 1
            return self._serve_upgrade(core, addr, coh, home, now)

        if line is not None and kind is not WRITE:
            line.total_reads += 1
            if coh is not None and coh.is_shared:
                line.fwd_reads += 1

        if coh is None or coh.is_idle:
            return self._serve_untracked(core, addr, kind, line, home, now)
        if coh.is_exclusive:
            return self._serve_exclusive(core, addr, kind, coh, home, now)
        return self._serve_shared(core, addr, kind, coh, line, home, now)

    # -- untracked: no private copies anywhere ---------------------------

    def _serve_untracked(self, core, addr, kind, line, home, now):
        self.stats.two_hop += 1
        latency = self._two_hop(core, home)
        if line is None or line.state is LLC_INVALID:
            latency += self._dram_fetch(addr, now)
            line = self._fill_llc(addr, LLC_CLEAN, now)
            if kind is not WRITE:
                line.total_reads += 1
        if kind is WRITE:
            coh = CohInfo(owner=core)
            fill_state = MODIFIED
        elif kind is IFETCH:
            coh = CohInfo(sharers=1 << core)
            fill_state = SHARED
        else:
            coh = CohInfo(owner=core)
            fill_state = EXCLUSIVE
        self._install(addr, coh, now)
        line.sharers_seen |= 1 << core
        self.traffic.data(PROCESSOR)  # the data response
        return latency, fill_state

    # -- exclusively owned by another core -------------------------------

    def _serve_exclusive(self, core, addr, kind, coh, home, now):
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        self.stats.three_hop += 1
        latency = self._three_hop(core, home, owner)
        if self.observer.enabled:
            self.observer.emit("dir:fwd_exclusive", cycle=now, core=core, addr=addr)
        self.traffic.control(COHERENCE)  # forwarded request
        self.traffic.data(PROCESSOR)  # owner -> requester data
        self.traffic.control(COHERENCE)  # busy-clear to home
        if kind is WRITE:
            prior = self.cores[owner].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale owner for block {addr:#x}")
            self.stats.invalidations += 1
            coh.set_owner(core)
            fill_state = MODIFIED
        else:
            prior = self.cores[owner].downgrade(addr)
            if prior is MODIFIED:
                # The downgrade deposits the dirty block at the home LLC.
                self.traffic.data(WRITEBACK)
                self._ensure_llc_data(addr, dirty=True, now=now)
            coh.add_sharer(core)
            fill_state = SHARED
        self._after_update(addr, coh, now)
        return latency, fill_state

    # -- shared by one or more cores --------------------------------------

    def _serve_shared(self, core, addr, kind, coh, line, home, now):
        line_valid = line is not None and line.state in (
            LLC_CLEAN,
            LLC_DIRTY,
        )
        if kind is WRITE:
            if self.observer.enabled:
                self.observer.emit("dir:write_shared", cycle=now, core=core, addr=addr)
            holders = coh.sharer_list()
            inval_path = self._invalidation_latency(home, holders, core)
            if line_valid:
                self.stats.two_hop += 1
                base = self._two_hop(core, home)
            else:
                self.stats.three_hop += 1
                forwarder = self._closest_sharer(coh, home)
                base = self._three_hop(core, home, forwarder)
                self.traffic.control(COHERENCE)
            self.traffic.data(PROCESSOR)
            self._invalidate_holders(addr, coh, now, data_to_requester=True)
            coh.set_owner(core)
            fill_state = MODIFIED
            latency = max(
                base,
                self._latency[core * self._tiles + home]
                + self._hit_latency_tag
                + inval_path,
            )
        else:
            if line_valid:
                self.stats.two_hop += 1
                latency = self._two_hop(core, home)
                self.traffic.data(PROCESSOR)
            else:
                # Non-inclusive LLC lost the clean copy: forward to the
                # elected sharer and refill the LLC alongside.
                self.stats.three_hop += 1
                forwarder = self._closest_sharer(coh, home)
                latency = self._three_hop(core, home, forwarder)
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
                self.traffic.data(WRITEBACK)  # LLC refill
                line = self._fill_llc(addr, LLC_CLEAN, now)
            coh.add_sharer(core)
            fill_state = SHARED
        if line is not None:
            line.note_holders(coh)
        self._after_update(addr, coh, now)
        return latency, fill_state

    # -- S -> M upgrades ----------------------------------------------------

    def _serve_upgrade(self, core, addr, coh, home, now):
        if self.observer.enabled:
            self.observer.emit("dir:upgrade", cycle=now, core=core, addr=addr)
        if coh is None or not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} the tracker does not "
                f"record it sharing"
            )
        holders = [h for h in coh.sharer_list() if h != core]
        inval_path = self._invalidation_latency(home, holders, core)
        for holder in holders:
            prior = self.cores[holder].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale sharer for block {addr:#x}")
            self.traffic.control(COHERENCE)
            self.traffic.control(COHERENCE)
            self.stats.invalidations += 1
        coh.set_owner(core)
        self.traffic.control(PROCESSOR)  # grant
        request_leg = self._latency[core * self._tiles + home] + self._hit_latency_tag
        if holders:
            self.stats.three_hop += 1
        else:
            self.stats.two_hop += 1
        self._after_update(addr, coh, now)
        reply = self._latency[home * self._tiles + core]
        return request_leg + max(reply, inval_path), None

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        if self.observer.enabled:
            self.observer.emit(
                "req:evict_notice", cycle=now, core=core, addr=addr, state=state.name
            )
        if state is MODIFIED:
            self.traffic.data(WRITEBACK)
            self._ensure_llc_data(addr, dirty=True, now=now)
        else:
            self.traffic.control(WRITEBACK)
        self.traffic.control(WRITEBACK)  # acknowledgement
        coh = self._find(addr, core, now)
        if coh is None:
            return
        coh.remove(core)
        self._after_update(addr, coh, now)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        """True when the tracking structures record ``core`` holding
        ``addr`` (used by the reverse invariant)."""
        coh = self.directory.peek(addr)
        return coh is not None and coh.holds(core)

    def check_invariants(self) -> None:
        """Tracking and private caches must exactly mirror each other."""
        if hasattr(self.directory, "iter_entries"):
            for addr, coh in self.directory.iter_entries():
                for holder in coh.holders():
                    state = self.cores[holder].state_of(addr)
                    if state is INVALID:
                        raise InvariantViolation(
                            f"directory records core {holder} holding "
                            f"{addr:#x} but its cache does not",
                            addr=addr,
                            cores=(holder,),
                        )
                    if coh.is_exclusive and not state.is_exclusive:
                        raise InvariantViolation(
                            f"directory says {addr:#x} exclusive at {holder}, "
                            f"cache says {state}",
                            addr=addr,
                            cores=(holder,),
                        )
        self._check_single_writer()
        for core in self.cores:
            for addr, _ in core.resident_blocks():
                if not self._tracks(addr, core.core_id):
                    raise InvariantViolation(
                        f"core {core.core_id} caches {addr:#x} but no "
                        f"tracking structure records it",
                        addr=addr,
                        cores=(core.core_id,),
                    )

    def _check_single_writer(self) -> None:
        exclusive_holder: "dict[int, int]" = {}
        holders: "dict[int, list[int]]" = {}
        for core in self.cores:
            for addr, state in core.resident_blocks():
                holders.setdefault(addr, []).append(core.core_id)
                if state.is_exclusive:
                    if addr in exclusive_holder:
                        raise InvariantViolation(
                            f"block {addr:#x} exclusively held by both "
                            f"{exclusive_holder[addr]} and {core.core_id}",
                            addr=addr,
                            cores=(exclusive_holder[addr], core.core_id),
                        )
                    exclusive_holder[addr] = core.core_id
        for addr, holder in exclusive_holder.items():
            if len(holders[addr]) > 1:
                raise InvariantViolation(
                    f"block {addr:#x} held exclusively by {holder} while "
                    f"also cached by {holders[addr]}",
                    addr=addr,
                    cores=tuple(holders[addr]),
                )


class SharedOnlyHome(SparseHome):
    """Idealized design tracking only shared blocks in the directory.

    Private and exclusively-owned blocks live in an unbounded zero-cost
    map (the paper's Fig. 3 experiment explicitly ignores its overhead).
    A block moves into the limited directory when it enters the S state
    with two distinct sharers, and back out when it becomes exclusively
    owned again.
    """

    __slots__ = ("_unbounded",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats, directory)
        self._unbounded: "dict[int, CohInfo]" = {}

    def _find(self, addr, core, now):
        coh = self._unbounded.get(addr)
        if coh is not None:
            return coh
        return self.directory.lookup(addr)

    def _install(self, addr, coh, now):
        if coh.sharer_count() >= 2:
            super()._install(addr, coh, now)
        else:
            if self.observer.enabled:
                self.observer.emit("shared_only:private", cycle=now, addr=addr)
            self._unbounded[addr] = coh

    def _drop(self, addr, coh, now):
        if self._unbounded.pop(addr, None) is None:
            self.directory.remove(addr)

    def _after_update(self, addr, coh, now):
        if coh.is_idle:
            self._drop(addr, coh, now)
            return
        if addr in self._unbounded:
            if coh.sharer_count() >= 2:
                del self._unbounded[addr]
                if self.observer.enabled:
                    self.observer.emit("shared_only:promote", cycle=now, addr=addr)
                super()._install(addr, coh, now)
        else:
            if coh.is_exclusive:
                # The limited directory only holds shared blocks.
                if self.directory.remove(addr) is not None:
                    if self.observer.enabled:
                        self.observer.emit("shared_only:demote", cycle=now, addr=addr)
                    self._unbounded[addr] = coh

    def _tracks(self, addr, core):
        coh = self._unbounded.get(addr)
        if coh is not None and coh.holds(core):
            return True
        return super()._tracks(addr, core)

    def rebuild_tracking(self, addr, truth, now=0):
        # Purge both structures, then reinstall through _install so the
        # record lands on the side the shared-only split dictates.
        in_unbounded = self._unbounded.pop(addr, None) is not None
        in_directory = self.directory.peek(addr) is not None
        if in_directory:
            self.directory.remove(addr)
        if truth.is_idle:
            if in_unbounded or in_directory:
                return "shared-only:removed"
            return "shared-only:already-absent"
        self._install(addr, truth.copy(), now)
        return "shared-only:reinstalled"

    def check_invariants(self) -> None:
        super().check_invariants()
        for addr, coh in self._unbounded.items():
            if coh.sharer_count() >= 2:
                raise InvariantViolation(
                    f"block {addr:#x} with two sharers left in the "
                    f"unbounded private tracker",
                    addr=addr,
                    cores=tuple(coh.holders()),
                )
            for holder in coh.holders():
                if self.cores[holder].state_of(addr) is INVALID:
                    raise InvariantViolation(
                        f"unbounded tracker records core {holder} holding "
                        f"{addr:#x} but its cache does not",
                        addr=addr,
                        cores=(holder,),
                    )


class StashHome(SparseHome):
    """Stash directory: drop private entries, broadcast to recover."""

    __slots__ = ("stash",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats, directory)
        self.stash = StashState()

    def _install(self, addr, coh, now):
        victim = self.directory.allocate(addr, coh)
        if self.observer.enabled:
            self.observer.emit("dir:alloc", cycle=now, addr=addr)
            if victim is not None:
                self.observer.emit("dir:evict", cycle=now, addr=victim[0])
        if victim is None:
            return
        vaddr, vcoh = victim
        if vcoh.is_exclusive:
            # Leave the private copy in place, untracked.
            if self.observer.enabled:
                self.observer.emit(
                    "stash:stash", cycle=now, core=vcoh.owner, addr=vaddr
                )
            self.stash.stash(vaddr, vcoh.owner)
        else:
            self._back_invalidate(vaddr, vcoh, now)

    def _find(self, addr, core, now):
        coh = self.directory.lookup(addr)
        if coh is not None:
            return coh
        holder = self.stash.owner_of(addr)
        if holder is None:
            return None
        # Broadcast recovery: query every core, collect responses. Its
        # latency (twice the mesh's widest span) is not charged to the
        # transaction: a known gap, pinned by a strict xfail test.
        if self.observer.enabled:
            self.observer.emit("stash:recover", cycle=now, core=holder, addr=addr)
        self.stash.unstash(addr)
        self.stats.broadcasts += 1
        num_cores = self.config.num_cores
        self.traffic.control(COHERENCE, count=num_cores)
        self.traffic.control(COHERENCE, count=num_cores)
        if not self.cores[holder].holds(addr):
            # The stashed copy was silently gone (should not happen: all
            # evictions are notified); treat as untracked.
            return None
        coh = CohInfo(owner=holder)
        self._install(addr, coh, now)
        return self.directory.lookup(addr)

    def handle_private_eviction(self, core, addr, state, now):
        if self.stash.owner_of(addr) == core:
            if self.observer.enabled:
                self.observer.emit("stash:unstash", cycle=now, core=core, addr=addr)
            self.stash.unstash(addr)
        super().handle_private_eviction(core, addr, state, now)

    def _tracks(self, addr, core):
        if self.stash.owner_of(addr) == core:
            return True
        return super()._tracks(addr, core)

    def rebuild_tracking(self, addr, truth, now=0):
        holder = self.stash.owner_of(addr)
        if holder is not None:
            if (
                truth.is_exclusive
                and truth.owner == holder
                and self.directory.peek(addr) is None
            ):
                # The stash record itself is the repaired ground truth.
                return "stash:confirmed"
            self.stash.unstash(addr)
            if truth.is_idle and self.directory.peek(addr) is None:
                return "stash:unstashed"
        return super().rebuild_tracking(addr, truth, now)

    def check_invariants(self) -> None:
        super().check_invariants()
        for addr in list(self.stash._stashed):
            holder = self.stash.owner_of(addr)
            if not self.cores[holder].holds(addr):
                raise InvariantViolation(
                    f"stashed block {addr:#x} is not cached by core {holder}",
                    addr=addr,
                    cores=(holder,),
                )


class MgdHome(SparseHome):
    """Multi-grain directory home: region entries for private data."""

    __slots__ = ("_region_hit",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        if not isinstance(directory, MultiGrainDirectory):
            raise ProtocolError("MgdHome requires a MultiGrainDirectory")
        super().__init__(config, mesh, dram, cores, stats, directory)
        self._region_hit: "RegionEntry | None" = None

    def _find(self, addr, core, now):
        self._region_hit = None
        coh = self.directory.lookup_block(addr)
        if coh is not None:
            return coh
        region_entry = self.directory.lookup_region(addr)
        if region_entry is None:
            return None
        if region_entry.owner == core:
            # The owner extends its own private region.
            self._region_hit = region_entry
            return None
        # Another core touches a privately tracked region: demote the
        # region to block-grain entries.
        self._demote_region(addr, region_entry, now)
        return self.directory.lookup_block(addr)

    def _demote_region(self, addr, region_entry, now) -> None:
        # The demotion's extra tag lookup (llc_tag_latency) is not charged
        # to the transaction: a known gap, pinned by a strict xfail test.
        owner = region_entry.owner
        if self.observer.enabled:
            self.observer.emit("mgd:region_demote", cycle=now, core=owner, addr=addr)
        region = self.directory.region_of(addr)
        self.directory.remove_region(region)
        for baddr in region_entry.blocks(region):
            state = self.cores[owner].state_of(baddr)
            if state is INVALID:
                continue
            self.traffic.control(COHERENCE)
            if self.observer.enabled:
                self.observer.emit(
                    "mgd:demote_alloc", cycle=now, core=owner, addr=baddr
                )
            victim = self.directory.allocate_block(baddr, CohInfo(owner=owner))
            self._handle_mgd_victim(victim, now)

    def _install(self, addr, coh, now):
        if coh.is_exclusive:
            region = self.directory.region_of(addr)
            offset = addr % BLOCKS_PER_REGION
            if self._region_hit is not None and self._region_hit.owner == coh.owner:
                if self.observer.enabled:
                    self.observer.emit("mgd:region_extend", cycle=now, addr=addr)
                self._region_hit.presence |= 1 << offset
                return
            entry = self.directory.lookup_region(addr)
            if entry is not None and entry.owner == coh.owner:
                if self.observer.enabled:
                    self.observer.emit("mgd:region_extend", cycle=now, addr=addr)
                entry.presence |= 1 << offset
                return
            if entry is None:
                if self.observer.enabled:
                    self.observer.emit("mgd:region_alloc", cycle=now, addr=addr)
                victim = self.directory.allocate_region(
                    region, RegionEntry(coh.owner, 1 << offset)
                )
                self._handle_mgd_victim(victim, now)
                return
        if self.observer.enabled:
            self.observer.emit("mgd:block_alloc", cycle=now, addr=addr)
        victim = self.directory.allocate_block(addr, coh)
        self._handle_mgd_victim(victim, now)

    def _handle_mgd_victim(self, victim, now) -> None:
        if victim is None:
            return
        kind, key, payload = victim
        if kind == "block":
            self._back_invalidate(key, payload, now)
        else:
            owner = payload.owner
            if self.observer.enabled:
                self.observer.emit(
                    "mgd:evict_region", cycle=now, core=owner,
                    addr=key * BLOCKS_PER_REGION,
                )
            for baddr in payload.blocks(key):
                state = self.cores[owner].invalidate(baddr)
                if state is INVALID:
                    continue
                self.stats.invalidations += 1
                self.stats.back_invalidations += 1
                self.traffic.control(COHERENCE)
                if state is MODIFIED:
                    self.traffic.data(COHERENCE)
                    self._store_dirty_data(baddr, now)
                else:
                    self.traffic.control(COHERENCE)

    def _drop(self, addr, coh, now):
        self.directory.remove_block(addr)

    def _after_update(self, addr, coh, now):
        if coh.is_idle:
            self._drop(addr, coh, now)

    def handle_private_eviction(self, core, addr, state, now):
        if self.observer.enabled:
            self.observer.emit(
                "req:evict_notice", cycle=now, core=core, addr=addr, state=state.name
            )
        if state is MODIFIED:
            self.traffic.data(WRITEBACK)
            self._ensure_llc_data(addr, dirty=True, now=now)
        else:
            self.traffic.control(WRITEBACK)
        self.traffic.control(WRITEBACK)
        coh = self.directory.lookup_block(addr)
        if coh is not None:
            coh.remove(core)
            self._after_update(addr, coh, now)
            return
        region_entry = self.directory.lookup_region(addr)
        if region_entry is not None and region_entry.owner == core:
            if self.observer.enabled:
                self.observer.emit("mgd:region_shrink", cycle=now, core=core, addr=addr)
            region_entry.presence &= ~(1 << (addr % BLOCKS_PER_REGION))
            if region_entry.presence == 0:
                self.directory.remove_region(self.directory.region_of(addr))

    def _tracks(self, addr, core):
        coh = self.directory.peek_block(addr)
        if coh is not None and coh.holds(core):
            return True
        entry = self.directory.peek_region(addr)
        return (
            entry is not None
            and entry.owner == core
            and bool(entry.presence >> (addr % BLOCKS_PER_REGION) & 1)
        )

    def rebuild_tracking(self, addr, truth, now=0):
        offset = addr % BLOCKS_PER_REGION
        coh = self.directory.peek_block(addr)
        entry = self.directory.peek_region(addr)
        if entry is not None and entry.presence >> offset & 1:
            if coh is None and truth.is_exclusive and truth.owner == entry.owner:
                # The region entry already expresses the probed truth.
                return "mgd:region-confirmed"
            # Shrink the region out of this block; the truth is recorded
            # at block grain (or nowhere) below.
            entry.presence &= ~(1 << offset)
            if entry.presence == 0:
                self.directory.remove_region(self.directory.region_of(addr))
        if truth.is_idle:
            if coh is None:
                return "mgd:already-absent"
            self.directory.remove_block(addr)
            return "mgd:removed"
        if coh is not None:
            coh.owner = truth.owner
            coh.sharers = truth.sharers
            return "mgd:block-rewritten"
        self._region_hit = None
        self._install(addr, truth.copy(), now)
        return "mgd:reinstalled"

    def check_invariants(self) -> None:
        self._check_single_writer()
        for addr, coh in self.directory.iter_blocks():
            for holder in coh.holders():
                if self.cores[holder].state_of(addr) is INVALID:
                    raise InvariantViolation(
                        f"MgD block entry records core {holder} holding "
                        f"{addr:#x} but its cache does not",
                        addr=addr,
                        cores=(holder,),
                    )
        for region, entry in self.directory.iter_regions():
            for baddr in entry.blocks(region):
                if self.cores[entry.owner].state_of(baddr) is INVALID:
                    raise InvariantViolation(
                        f"MgD region {region:#x} marks block {baddr:#x} "
                        f"present at core {entry.owner} but its cache "
                        f"does not hold it",
                        addr=baddr,
                        cores=(entry.owner,),
                    )
        for core in self.cores:
            for addr, _ in core.resident_blocks():
                if not self._tracks(addr, core.core_id):
                    raise InvariantViolation(
                        f"core {core.core_id} caches {addr:#x} but MgD "
                        f"does not track it",
                        addr=addr,
                        cores=(core.core_id,),
                    )
