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
from repro.interconnect.traffic import (
    COHERENCE_CONTROL,
    COHERENCE_DATA,
    PROCESSOR_CONTROL,
    PROCESSOR_DATA,
    WRITEBACK_CONTROL,
    WRITEBACK_DATA,
)
from repro.types import (
    EXCLUSIVE,
    IFETCH,
    INVALID,
    LLC_CLEAN,
    LLC_DIRTY,
    MODIFIED,
    SHARED,
    WRITE,
    AccessKind,
    LLCState,
    PrivateState,
)


class SparseHome(BaseHome):
    """Baseline MESI home node with a sparse directory.

    A sparse-family home keeps its LLC lines in the clean and dirty
    states only: the corrupted and spilled states belong to the in-LLC
    homes, and no home puts a line in the invalid state.
    """

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
        if coh.owner is None and not coh.sharers:
            self._drop(addr, coh, now)

    def _back_invalidate(self, addr: int, coh: CohInfo, now: int) -> None:
        """Invalidate every private copy of an evicted tracking entry."""
        holders = coh.holders()
        if self.observer.enabled:
            self.observer.emit(
                "dir:back_invalidate", cycle=now, addr=addr, holders=holders
            )
        self.stats.back_invalidations += len(holders)
        self._invalidate_holders(addr, coh, now)

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

    def _ensure_llc_data(self, addr: int, now: int) -> None:
        """Deposit written-back dirty data into the LLC (allocating the
        line when it is absent)."""
        bank = self.banks[addr % self.num_banks]
        line, _ = bank.lookup(addr, touch=False)
        if line is None:
            self._fill_llc(addr, LLC_DIRTY, now)
        else:
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
        messages = self._messages
        messages[PROCESSOR_CONTROL] += 1  # the request
        coh = self._find(addr, core, now)
        line, _ = bank.lookup(addr)

        if upgrade:
            stats.upgrades += 1
            if self.observer.enabled:
                self.observer.emit("dir:upgrade", cycle=now, core=core, addr=addr)
            result = self._serve_upgrade(core, addr, coh, home)
            self._after_update(addr, coh, now)
            return result

        if coh is None or (coh.owner is None and not coh.sharers):
            # Untracked: no private copies anywhere. Two hops, through
            # memory and an LLC fill on a miss.
            stats.two_hop += 1
            latency = (
                2 * self._latency[core * self._tiles + home] + self._hit_latency_data
            )
            if line is None:
                stats.llc_misses += 1
                latency += 2 * self._memory_latency[home] + self.dram.access(
                    addr, now, False
                )
                line, victim = bank.insert_block(addr, LLC_CLEAN)
                if victim is not None:
                    self._handle_llc_victim(victim, now)
            if kind is WRITE:
                coh = CohInfo(owner=core)
                fill_state = MODIFIED
            else:
                line.total_reads += 1
                if kind is IFETCH:
                    coh = CohInfo(sharers=1 << core)
                    fill_state = SHARED
                else:
                    coh = CohInfo(owner=core)
                    fill_state = EXCLUSIVE
            self._install(addr, coh, now)
            line.sharers_seen |= 1 << core
            messages[PROCESSOR_DATA] += 1  # the data response
            return latency, fill_state

        if line is not None and kind is not WRITE:
            line.total_reads += 1
            if coh.sharers:
                line.fwd_reads += 1
        if coh.owner is not None:
            return self._serve_exclusive(core, addr, kind, coh, home, now)
        return self._serve_shared(core, addr, kind, coh, line, home, now)

    # -- exclusively owned by another core -------------------------------

    def _serve_exclusive(self, core, addr, kind, coh, home, now):
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        stats = self.stats
        stats.three_hop += 1
        latency = self._three_hop(core, home, owner)
        if self.observer.enabled:
            self.observer.emit("dir:fwd_exclusive", cycle=now, core=core, addr=addr)
        messages = self._messages
        messages[COHERENCE_CONTROL] += 2  # forwarded request, busy-clear
        messages[PROCESSOR_DATA] += 1  # owner -> requester data
        if kind is WRITE:
            prior = self.cores[owner].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale owner for block {addr:#x}")
            stats.invalidations += 1
            coh.owner = core
            fill_state = MODIFIED
        else:
            prior = self.cores[owner].downgrade(addr)
            if prior is MODIFIED:
                # The downgrade deposits the dirty block at the home LLC.
                messages[WRITEBACK_DATA] += 1
                self._ensure_llc_data(addr, now)
            coh.owner = None
            coh.sharers = 1 << owner | 1 << core
            fill_state = SHARED
        self._after_update(addr, coh, now)
        return latency, fill_state

    # -- shared by one or more cores --------------------------------------

    def _serve_shared(self, core, addr, kind, coh, line, home, now):
        stats = self.stats
        messages = self._messages
        if kind is WRITE:
            if self.observer.enabled:
                self.observer.emit("dir:write_shared", cycle=now, core=core, addr=addr)
            holders = coh.sharer_list()
            inval_path = self._invalidation_latency(home, holders, core)
            if line is not None:
                stats.two_hop += 1
                base = (
                    2 * self._latency[core * self._tiles + home]
                    + self._hit_latency_data
                )
            else:
                stats.three_hop += 1
                forwarder = self._closest_sharer(coh, home)
                base = self._three_hop(core, home, forwarder)
                messages[COHERENCE_CONTROL] += 1
            messages[PROCESSOR_DATA] += 1
            self._invalidate_holders(addr, coh, now, data_to_requester=True)
            coh.owner = core  # the invalidations cleared the sharers
            latency = max(
                base,
                self._latency[core * self._tiles + home]
                + self._hit_latency_tag
                + inval_path,
            )
            if line is not None:
                line.sharers_seen |= 1 << core
            self._after_update(addr, coh, now)
            return latency, MODIFIED
        if line is not None:
            stats.two_hop += 1
            latency = (
                2 * self._latency[core * self._tiles + home] + self._hit_latency_data
            )
            messages[PROCESSOR_DATA] += 1
        else:
            # Non-inclusive LLC lost the clean copy: forward to the
            # elected sharer and refill the LLC alongside.
            stats.three_hop += 1
            forwarder = self._closest_sharer(coh, home)
            latency = self._three_hop(core, home, forwarder)
            messages[COHERENCE_CONTROL] += 2
            messages[PROCESSOR_DATA] += 1
            messages[WRITEBACK_DATA] += 1  # LLC refill
            line = self._fill_llc(addr, LLC_CLEAN, now)
        coh.sharers |= 1 << core
        line.sharers_seen |= coh.sharers
        self._after_update(addr, coh, now)
        return latency, SHARED

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
        messages = self._messages
        # The notice (carrying the data of an M copy) and its acknowledgement.
        if state is MODIFIED:
            messages[WRITEBACK_DATA] += 1
            messages[WRITEBACK_CONTROL] += 1
            self._ensure_llc_data(addr, now)
        else:
            messages[WRITEBACK_CONTROL] += 2
        coh = self._find(addr, core, now)
        if coh is None:
            return
        if coh.owner == core:
            coh.owner = None
        coh.sharers &= ~(1 << core)
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
        if coh.owner is None and not coh.sharers:
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
    """Stash directory: drop private entries, broadcast to recover.

    Each request or eviction notice reads the stash's owner map with one
    dict operation, in place (``self.stash._stashed``); the
    :class:`StashState` methods serve the invariant checks and tests.
    """

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
        owner = vcoh.owner
        if owner is not None:
            # Leave the private copy in place, untracked.
            if self.observer.enabled:
                self.observer.emit("stash:stash", cycle=now, core=owner, addr=vaddr)
            self.stash._stashed[vaddr] = owner
        else:
            self._back_invalidate(vaddr, vcoh, now)

    def _find(self, addr, core, now):
        coh = self.directory.lookup(addr)
        if coh is not None:
            return coh
        holder = self.stash._stashed.pop(addr, None)
        if holder is None:
            return None
        # Broadcast recovery: query every core, collect responses. Its
        # latency (twice the mesh's widest span) is not charged to the
        # transaction: a known gap, pinned by a strict xfail test.
        if self.observer.enabled:
            self.observer.emit("stash:recover", cycle=now, core=holder, addr=addr)
        self.stats.broadcasts += 1
        self._messages[COHERENCE_CONTROL] += 2 * self.config.num_cores
        if not self.cores[holder].holds(addr):
            # The stashed copy was silently gone (should not happen: all
            # evictions are notified); treat as untracked.
            return None
        coh = CohInfo(owner=holder)
        self._install(addr, coh, now)
        return self.directory.lookup(addr)

    def handle_private_eviction(self, core, addr, state, now):
        stashed = self.stash._stashed
        if stashed.get(addr) == core:
            if self.observer.enabled:
                self.observer.emit("stash:unstash", cycle=now, core=core, addr=addr)
            del stashed[addr]
        super().handle_private_eviction(core, addr, state, now)

    def _tracks(self, addr, core):
        if self.stash.owner_of(addr) == core:
            return True
        return super()._tracks(addr, core)

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

    __slots__ = ("_region",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        if not isinstance(directory, MultiGrainDirectory):
            raise ProtocolError("MgdHome requires a MultiGrainDirectory")
        super().__init__(config, mesh, dram, cores, stats, directory)
        #: The region entry the current request's :meth:`_find` probed
        #: (None when there was none), or False when it found a block
        #: entry and did not probe the region.
        self._region: "RegionEntry | None | bool" = False

    def _find(self, addr, core, now):
        directory = self.directory
        coh = directory.lookup_block(addr)
        if coh is not None:
            self._region = False
            return coh
        region_entry = directory.lookup_region(addr)
        if region_entry is not None and region_entry.owner != core:
            # Another core touches a privately tracked region: demote the
            # region to block-grain entries.
            self._demote_region(addr, region_entry, now)
            self._region = None
            return directory.lookup_block(addr)
        # None, or the requester's own private region, which it extends.
        self._region = region_entry
        return None

    def _demote_region(self, addr, region_entry, now) -> None:
        # The demotion's extra tag lookup (llc_tag_latency) is not charged
        # to the transaction: a known gap, pinned by a strict xfail test.
        owner = region_entry.owner
        if self.observer.enabled:
            self.observer.emit("mgd:region_demote", cycle=now, core=owner, addr=addr)
        region = addr // BLOCKS_PER_REGION
        directory = self.directory
        directory.remove_region(region)
        for baddr in region_entry.blocks(region):
            state = self.cores[owner].state_of(baddr)
            if state is INVALID:
                continue
            self._messages[COHERENCE_CONTROL] += 1
            if self.observer.enabled:
                self.observer.emit(
                    "mgd:demote_alloc", cycle=now, core=owner, addr=baddr
                )
            victim = directory.allocate_block(baddr, CohInfo(owner=owner))
            if victim is not None:
                self._handle_mgd_victim(victim, now)

    def _install(self, addr, coh, now):
        owner = coh.owner
        if owner is not None:
            entry = self._region
            if entry is False:
                entry = self.directory.lookup_region(addr)
            offset = addr % BLOCKS_PER_REGION
            if entry is not None and entry.owner == owner:
                if self.observer.enabled:
                    self.observer.emit("mgd:region_extend", cycle=now, addr=addr)
                entry.presence |= 1 << offset
                return
            if entry is None:
                if self.observer.enabled:
                    self.observer.emit("mgd:region_alloc", cycle=now, addr=addr)
                victim = self.directory.allocate_region(
                    addr // BLOCKS_PER_REGION, RegionEntry(owner, 1 << offset)
                )
                if victim is not None:
                    self._handle_mgd_victim(victim, now)
                return
        if self.observer.enabled:
            self.observer.emit("mgd:block_alloc", cycle=now, addr=addr)
        victim = self.directory.allocate_block(addr, coh)
        if victim is not None:
            self._handle_mgd_victim(victim, now)

    def _handle_mgd_victim(self, victim, now) -> None:
        kind, key, payload = victim
        if kind == "block":
            self._back_invalidate(key, payload, now)
            return
        owner = payload.owner
        if self.observer.enabled:
            self.observer.emit(
                "mgd:evict_region", cycle=now, core=owner,
                addr=key * BLOCKS_PER_REGION,
            )
        # The region's owner gives up every present block: one
        # invalidation each, acknowledged with data for an M copy. The
        # counts are added once for the region.
        cache = self.cores[owner]
        invalidated = dirty = 0
        for baddr in payload.blocks(key):
            state = cache.invalidate(baddr)
            if state is INVALID:
                continue
            invalidated += 1
            if state is MODIFIED:
                dirty += 1
                self._store_dirty_data(baddr, now)
        stats = self.stats
        stats.invalidations += invalidated
        stats.back_invalidations += invalidated
        messages = self._messages
        messages[COHERENCE_CONTROL] += 2 * invalidated - dirty
        messages[COHERENCE_DATA] += dirty

    def _drop(self, addr, coh, now):
        self.directory.remove_block(addr)

    def handle_private_eviction(self, core, addr, state, now):
        if self.observer.enabled:
            self.observer.emit(
                "req:evict_notice", cycle=now, core=core, addr=addr, state=state.name
            )
        messages = self._messages
        if state is MODIFIED:
            messages[WRITEBACK_DATA] += 1
            messages[WRITEBACK_CONTROL] += 1
            self._ensure_llc_data(addr, now)
        else:
            messages[WRITEBACK_CONTROL] += 2
        directory = self.directory
        coh = directory.lookup_block(addr)
        if coh is not None:
            if coh.owner == core:
                coh.owner = None
            coh.sharers &= ~(1 << core)
            if coh.owner is None and not coh.sharers:
                directory.remove_block(addr)
            return
        region_entry = directory.lookup_region(addr)
        if region_entry is not None and region_entry.owner == core:
            if self.observer.enabled:
                self.observer.emit("mgd:region_shrink", cycle=now, core=core, addr=addr)
            region_entry.presence &= ~(1 << (addr % BLOCKS_PER_REGION))
            if region_entry.presence == 0:
                directory.remove_region(addr // BLOCKS_PER_REGION)

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
