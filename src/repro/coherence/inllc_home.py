"""The home controller for in-LLC tracking and the tiny directory.

:class:`InLLCHome` implements Section III of the paper: there is no
sparse directory, and a block's location/sharers are tracked by borrowing
a few bits of the block's LLC data way (the *corrupted* states of Tables
III/IV). Reads to corrupted-shared blocks must be forwarded to an elected
sharer, lengthening their critical path to three hops — the design's key
shortcoming. The ``tag_extended`` flag selects the storage-heavy variant
whose LLC tags carry the tracking state instead, leaving data intact
(left bars of Fig. 4).

The same home serves Section IV, which layers a tiny directory tracking
the high-STRA subset of shared blocks, and optionally dynamic spilling
of tracking entries into LLC ways, on top of in-LLC tracking. Each
request and notice consults the tiny directory and the spilled entries
only when the home has them: :class:`TinyHome` is the constructor that
installs them.
"""

from __future__ import annotations

from repro.cache.llc import LLCLine
from repro.coherence.base import BaseHome
from repro.coherence.info import CohInfo
from repro.core.spill import DynamicSpillPolicy, SpillConfig
from repro.core.stra import StraCounters
from repro.core.tiny_directory import TinyDirectory
from repro.errors import InvariantViolation, ProtocolError
from repro.interconnect.traffic import (
    COHERENCE_CONTROL,
    COHERENCE_DATA,
    COHERENCE_PARTIAL,
    PROCESSOR_CONTROL,
    PROCESSOR_DATA,
    WRITEBACK_CONTROL,
    WRITEBACK_DATA,
    WRITEBACK_PARTIAL,
)
from repro.types import (
    EXCLUSIVE,
    IFETCH,
    INVALID,
    LLC_CLEAN,
    LLC_CORRUPTED,
    LLC_DIRTY,
    LLC_SPILLED_ENTRY,
    MODIFIED,
    SHARED,
    WRITE,
    AccessKind,
    PrivateState,
)


class InLLCHome(BaseHome):
    """Home node tracking coherence inside the LLC (no sparse directory),
    with the tiny directory and spilled entries of §IV when installed."""

    __slots__ = (
        "tag_extended",
        "stra_limit",
        "_decode_latency",
        "tiny",
        "spill_enabled",
        "spill_policies",
    )

    def __init__(self, config, mesh, dram, cores, stats, tag_extended=False) -> None:
        super().__init__(config, mesh, dram, cores, stats)
        self.tag_extended = tag_extended
        #: Saturation value of freshly created STRA counters (six-bit in
        #: the paper; widened/narrowed by the ablation knob).
        self.stra_limit = 63
        # Extra LLC serialization for decoding a corrupted block (§IV-C):
        # the data read plus the state-decoder cycle. Only a line in the
        # corrupted state pays it, and no line is corrupted under tag
        # extension.
        self._decode_latency = config.llc_data_latency + config.corrupted_decode_latency
        #: The tiny directory (None for plain in-LLC tracking).
        self.tiny: "TinyDirectory | None" = None
        #: Whether tracking entries may spill into LLC ways.
        self.spill_enabled = False
        #: One dynamic spill policy per bank (used only with spilling on).
        self.spill_policies: "list[DynamicSpillPolicy]" = []

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def _mark_tracked(self, line: LLCLine, bank, now: int) -> None:
        """Move a valid line into the corrupted (tracking) state."""
        if self.observer.enabled:
            self.observer.emit("llc:mark_tracked", cycle=now, addr=line.tag)
        if self.tag_extended:
            return
        line.underlying_dirty = line.underlying_dirty or line.state is LLC_DIRTY
        line.state = LLC_CORRUPTED
        bank.data_writes += 1  # the borrowed bits are written in the data array

    def _back_invalidate(
        self, addr: int, coh: CohInfo, now: int, dirty: bool = False,
        event: str = "llc:back_invalidate",
    ) -> bool:
        """Invalidate every private copy ``coh`` records of ``addr``,
        whose tracking is leaving the home, and clear the record.

        The block goes to memory when ``dirty`` or when an M copy came
        back; returns True when one did. A recorded holder without a copy
        is a stale record (a lost notice or a dropped copy) and raises
        :class:`InvariantViolation`.
        """
        holders = coh.holders()
        if self.observer.enabled:
            self.observer.emit(event, cycle=now, addr=addr, holders=holders)
        had_modified = False
        messages = self._messages
        stats = self.stats
        for holder in holders:
            prior = self.cores[holder].invalidate(addr)
            if prior is MODIFIED:
                had_modified = True
                messages[COHERENCE_CONTROL] += 1  # invalidation
                messages[COHERENCE_DATA] += 1  # data response
            elif prior is INVALID:
                raise InvariantViolation(
                    f"back-invalidation sent to core {holder} for block "
                    f"{addr:#x} it does not hold (stale tracking entry)",
                    addr=addr,
                    cores=(holder,),
                )
            else:
                messages[COHERENCE_CONTROL] += 2  # invalidation, ack
            stats.invalidations += 1
            stats.back_invalidations += 1
        if dirty or had_modified:
            self._dram_write(addr, now)
        coh.clear()
        return had_modified

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        """An evicted LLC line. A spilled entry's tracking goes back into
        its data block; a data line drops its spilled companion, if any,
        back-invalidating the holders either records (a tracked line is
        reconstructed first), and writes its dirty data back."""
        addr = victim.tag
        if victim.state is LLC_SPILLED_ENTRY:
            bank = self.banks[addr % self.num_banks]
            b_line, _ = bank.lookup(addr, touch=False)
            if b_line is not None and b_line.coh is None:
                if self.observer.enabled:
                    self.observer.emit("tiny:recall", cycle=now, addr=addr)
                b_line.coh = victim.coh
                b_line.stra = victim.stra
                self._mark_tracked(b_line, bank, now)
            else:
                self._back_invalidate(addr, victim.coh, now)
            return
        if self.tiny is not None:
            bank = self.banks[addr % self.num_banks]
            _, spill = bank.lookup(addr, touch=False)
            if spill is not None:
                bank.remove(spill)
                self._back_invalidate(addr, spill.coh, now)
                self._flush_residency(victim)
                if victim.state is LLC_DIRTY or victim.underlying_dirty:
                    self._dram_write(addr, now)
                return
        self._flush_residency(victim)
        coh = victim.coh
        if coh is None or (coh.owner is None and not coh.sharers):
            if victim.state is LLC_DIRTY or victim.underlying_dirty:
                if self.observer.enabled:
                    self.observer.emit("llc:evict_dirty", cycle=now, addr=addr)
                self._dram_write(addr, now)
            return
        if (
            not self._back_invalidate(
                addr, coh, now, victim.underlying_dirty, "llc:evict_tracked"
            )
            and not self.tag_extended
        ):
            # One holder supplies the borrowed bits for reconstruction.
            self._messages[COHERENCE_PARTIAL] += 1

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
        """Serve a private miss or upgrade in one frame.

        A home with a tiny directory looks the block up there first. The
        bank is probed here, as :meth:`LLCBank.lookup` would: one tag
        lookup finds the data line and the spilled entry, which share a
        tag, and touches the spilled entry, then the line. An untracked
        miss fetches from DRAM, fills the LLC as
        :meth:`LLCBank.insert_block` would and takes ownership here, and
        with spilling on the bank's spill policy counts the access here,
        as :meth:`DynamicSpillPolicy.record_access` would.
        """
        stats = self.stats
        stats.llc_transactions += 1
        num_banks = self.num_banks
        home = addr % num_banks
        bank = self.banks[home]
        if self.observer.enabled:
            self.observer.emit(
                "req:upgrade" if upgrade else f"req:{kind.name.lower()}",
                cycle=now, core=core, addr=addr,
            )
        self._messages[PROCESSOR_CONTROL] += 1
        tiny = self.tiny
        if tiny is None:
            entry = spill = None
        else:
            entry = tiny.lookup(addr, now)
            spills = bank._spills
            spill = spills.get(addr) if spills else None
        bank.tag_lookups += 1
        blocks = bank._blocks
        line = blocks.get(addr)
        set_index = (addr // num_banks) % bank.num_sets
        keys = bank._sets.get(set_index)
        if spill is not None:
            # E_B first, then B: B stays the more recent (§IV-B1).
            if keys[-1] != ~addr:
                keys.remove(~addr)
                keys.append(~addr)
            if line is not None:
                keys.remove(addr)
                keys.append(addr)
        elif line is not None and keys[-1] != addr:
            keys.remove(addr)
            keys.append(addr)
        shared_read = False
        miss = False
        if upgrade:
            stats.upgrades += 1
            if entry is not None:
                entry.stra.record_other()
                latency, fill_state = self._serve_upgrade(core, addr, entry.coh, home)
            elif spill is not None:
                spill.stra.record_other()
                latency, fill_state = self._serve_upgrade(core, addr, spill.coh, home)
                # A write transfers the spilled info back into the data
                # block, which switches to corrupted exclusive (§IV-B1).
                latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank, now)
            else:
                if line is None or line.coh is None:
                    raise ProtocolError(f"upgrade for untracked block {addr:#x}")
                line.stra.record_other()
                latency, fill_state = self._serve_upgrade(
                    core, addr, line.coh, home,
                    self._decode_latency if line.state is LLC_CORRUPTED else 0,
                )
                self._mark_tracked(line, bank, now)
        elif entry is not None:
            if self.observer.enabled:
                self.observer.emit("tiny:hit", cycle=now, core=core, addr=addr)
            coh = entry.coh
            shared_read = kind is not WRITE and coh.sharers != 0
            latency, fill_state = self._serve_via_tracker(
                core, addr, kind, coh, entry.stra, line, bank, home, now,
                shared_read, via_spill=False,
            )
            if coh.owner is None and not coh.sharers:
                tiny.remove(addr)
        elif spill is not None:
            if self.observer.enabled:
                self.observer.emit("tiny:spill_hit", cycle=now, core=core, addr=addr)
            coh = spill.coh
            shared_read = kind is not WRITE and coh.sharers != 0
            latency, fill_state = self._serve_via_tracker(
                core, addr, kind, coh, spill.stra, line, bank, home, now,
                shared_read, via_spill=True,
            )
            if kind is WRITE:
                latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank, now)
            elif coh.owner is None and not coh.sharers:
                bank.remove(spill)
        elif line is None or line.coh is None:
            # Untracked: two hops, through memory and an LLC fill on a miss.
            stats.two_hop += 1
            latency = (
                2 * self._latency[core * self._tiles + home] + self._hit_latency_data
            )
            if line is None:
                miss = True
                stats.llc_misses += 1
                latency += 2 * self._memory_latency[home] + self.dram.access(
                    addr, now, False
                )
                # The fill; the probe just missed, so the block is not
                # resident.
                if keys is None:
                    keys = bank._sets[set_index] = []
                victim = None
                if len(keys) >= bank.assoc:
                    key = keys.pop(0)
                    victim = blocks.pop(key) if key >= 0 else bank._spills.pop(~key)
                line = blocks[addr] = LLCLine(addr, LLC_CLEAN)
                keys.append(addr)
                bank.fills += 1
                bank.data_writes += 1
                if victim is not None:
                    self._handle_llc_victim(victim, now)
            # The requester takes the unowned block and the line starts
            # tracking it (corrupted, unless tag-extended). This access is
            # the STRA counters' first "other" access; counters are at
            # least two bits wide (TinySpec), so one count cannot saturate.
            if kind is WRITE:
                line.coh = CohInfo(owner=core)
                fill_state = MODIFIED
            else:
                if kind is IFETCH:
                    line.coh = CohInfo(sharers=1 << core)
                    fill_state = SHARED
                else:
                    line.coh = CohInfo(owner=core)
                    fill_state = EXCLUSIVE
                line.total_reads += 1
            line.stra = StraCounters(oac=1, limit=self.stra_limit)
            if self.observer.enabled:
                self.observer.emit("llc:mark_tracked", cycle=now, addr=addr)
            if not self.tag_extended:
                line.underlying_dirty = line.underlying_dirty or line.state is LLC_DIRTY
                line.state = LLC_CORRUPTED
                bank.data_writes += 1  # the borrowed bits are written in the data array
            line.sharers_seen |= 1 << core
            self._messages[PROCESSOR_DATA] += 1
            if kind is IFETCH and tiny is not None:
                # Allocation situation (ii): an instruction read to an
                # unowned block (§IV).
                self._consider_tracking(addr, line, bank, home, now)
        else:
            # Tracked in the line, whose STRA counters travel with its CohInfo.
            coh = line.coh
            if kind is WRITE:
                line.stra.record_other()
            else:
                line.total_reads += 1
                if coh.sharers:
                    shared_read = True
                    line.fwd_reads += 1
                    line.stra.record_shared_read()
                else:
                    line.stra.record_other()
            if coh.owner is not None:
                latency, fill_state = self._serve_tracked_exclusive(
                    core, addr, kind, line, bank, home
                )
            else:
                latency, fill_state = self._serve_tracked_shared(
                    core, addr, kind, line, home, now
                )
            # The residency record: every core that held the block.
            line.sharers_seen |= coh.sharers
            if coh.owner is not None:
                line.sharers_seen |= 1 << coh.owner
            if tiny is not None and kind is not WRITE:
                # Allocation situation (i): a read to a corrupted block.
                self._consider_tracking(addr, line, bank, home, now)

        if self.spill_enabled:
            # The bank's observation window counts the access.
            policy = self.spill_policies[home]
            policy._accesses += 1
            if miss:
                policy._misses += 1
            if shared_read:
                policy._shared_reads += 1
            if set_index in bank.sample_sets:
                policy._sample_accesses += 1
                if miss:
                    policy._sample_misses += 1
            else:
                policy._spill_accesses += 1
                if miss:
                    policy._spill_misses += 1
            if policy._accesses >= policy.config.window_accesses:
                policy._end_window()
        return latency, fill_state

    def _serve_tracked_exclusive(self, core, addr, kind, line, bank, home):
        coh = line.coh
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        self.stats.three_hop += 1
        extra = self._decode_latency if line.state is LLC_CORRUPTED else 0
        latency = self._three_hop(core, home, owner, extra)
        messages = self._messages
        messages[COHERENCE_CONTROL] += 2  # forward, busy-clear
        messages[PROCESSOR_DATA] += 1  # owner -> requester
        if kind is WRITE:
            prior = self.cores[owner].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale owner for block {addr:#x}")
            self.stats.invalidations += 1
            coh.set_owner(core)
            return latency, MODIFIED
        prior = self.cores[owner].downgrade(addr)
        if prior is MODIFIED:
            # Dirty data is deposited in the (corrupted) LLC line's
            # intact data portion.
            messages[WRITEBACK_DATA] += 1
            line.underlying_dirty = True
            bank.data_writes += 1
        coh.add_sharer(core)
        return latency, SHARED

    def _serve_tracked_shared(self, core, addr, kind, line, home, now):
        stats = self.stats
        coh = line.coh
        extra = self._decode_latency if line.state is LLC_CORRUPTED else 0
        if kind is WRITE:
            holders = coh.sharer_list()
            forwarder = self._closest_sharer(coh, home)
            inval_path = self._invalidation_latency(home, holders, core)
            base = self._three_hop(core, home, forwarder, extra)
            stats.three_hop += 1
            latency = max(
                base,
                self._latency[core * self._tiles + home]
                + self._hit_latency_tag
                + extra
                + inval_path,
            )
            for holder in holders:
                prior = self.cores[holder].invalidate(addr)
                if prior is INVALID:
                    raise ProtocolError(f"stale sharer for block {addr:#x}")
                stats.invalidations += 1
                if holder == forwarder:
                    self._messages[COHERENCE_CONTROL] += 1  # invalidation
                    self._messages[PROCESSOR_DATA] += 1  # special ack
                else:
                    self._messages[COHERENCE_CONTROL] += 2  # invalidation, ack
            coh.set_owner(core)
            return latency, MODIFIED
        if self.tag_extended:
            # The LLC data is intact: serve in two hops.
            stats.two_hop += 1
            latency = self._two_hop(core, home)
            self._messages[PROCESSOR_DATA] += 1
        else:
            if self.observer.enabled:
                self.observer.emit(
                    "llc:lengthened_read", cycle=now, core=core, addr=addr
                )
            forwarder = self._closest_sharer(coh, home)
            stats.three_hop += 1
            stats.lengthened += 1
            if kind is IFETCH:
                stats.lengthened_code += 1
            else:
                stats.lengthened_data += 1
            latency = self._three_hop(core, home, forwarder, extra)
            self._messages[COHERENCE_CONTROL] += 2  # forward, busy-clear
            self._messages[PROCESSOR_DATA] += 1
        coh.add_sharer(core)
        return latency, SHARED

    # ------------------------------------------------------------------
    # Serving accesses whose tracking lives in the tiny directory or a
    # spilled entry: the LLC data stays valid, so shared reads take two
    # hops — the whole point of the proposal.
    # ------------------------------------------------------------------

    def _serve_via_tracker(
        self, core, addr, kind, coh, stra, line, bank, home, now, shared_read,
        via_spill,
    ):
        stats = self.stats
        if shared_read:
            stra.record_shared_read()
        else:
            stra.record_other()
        line_valid = line is not None
        if line is not None and kind is not WRITE:
            line.total_reads += 1
            if shared_read:
                line.fwd_reads += 1
        owner = coh.owner
        if kind is WRITE:
            if owner is not None:
                if owner == core:
                    raise ProtocolError(
                        f"core {core} missed on owned block {addr:#x}"
                    )
                stats.three_hop += 1
                latency = self._three_hop(core, home, owner)
                self._messages[COHERENCE_CONTROL] += 2  # forward, busy-clear
                self._messages[PROCESSOR_DATA] += 1
                prior = self.cores[owner].invalidate(addr)
                if prior is INVALID:
                    raise ProtocolError(f"stale owner for block {addr:#x}")
                stats.invalidations += 1
            else:
                # Counted as two hops even when the LLC line is gone and
                # the data comes from a sharer.
                stats.two_hop += 1
                holders = coh.sharer_list()
                inval_path = self._invalidation_latency(home, holders, core)
                base = (
                    self._two_hop(core, home)
                    if line_valid
                    else self._three_hop(core, home, self._closest_sharer(coh, home))
                )
                self._messages[PROCESSOR_DATA] += 1
                for holder in holders:
                    prior = self.cores[holder].invalidate(addr)
                    if prior is INVALID:
                        raise ProtocolError(f"stale sharer for block {addr:#x}")
                    stats.invalidations += 1
                    self._messages[COHERENCE_CONTROL] += 2  # invalidation, ack
                latency = max(
                    base,
                    self._latency[core * self._tiles + home]
                    + self._hit_latency_tag
                    + inval_path,
                )
            coh.set_owner(core)
            fill_state = MODIFIED
        elif owner is not None:
            if owner == core:
                raise ProtocolError(f"core {core} missed on owned block {addr:#x}")
            stats.three_hop += 1
            latency = self._three_hop(core, home, owner)
            self._messages[COHERENCE_CONTROL] += 2  # forward, busy-clear
            self._messages[PROCESSOR_DATA] += 1
            prior = self.cores[owner].downgrade(addr)
            if prior is MODIFIED:
                self._messages[WRITEBACK_DATA] += 1
                if line is not None:
                    line.underlying_dirty = True
                    bank.data_writes += 1
                else:
                    self._dram_write(addr, now)
            coh.add_sharer(core)
            fill_state = SHARED
        else:
            if line_valid:
                stats.two_hop += 1
                latency = self._two_hop(core, home)
                self._messages[PROCESSOR_DATA] += 1
                if via_spill and shared_read:
                    stats.spill_saved += 1
            else:
                # Tracked in the tiny directory but the LLC data line was
                # evicted: forward to a sharer and refill.
                if self.observer.enabled:
                    self.observer.emit(
                        "tiny:fwd_refill", cycle=now, core=core, addr=addr
                    )
                forwarder = self._closest_sharer(coh, home)
                stats.three_hop += 1
                latency = self._three_hop(core, home, forwarder)
                self._messages[COHERENCE_CONTROL] += 2  # forward, busy-clear
                self._messages[PROCESSOR_DATA] += 1
            coh.add_sharer(core)
            fill_state = SHARED
        if line is not None:
            line.sharers_seen |= coh.sharers
            if coh.owner is not None:
                line.sharers_seen |= 1 << coh.owner
        return latency, fill_state

    def _unspill_into_line(self, spill, line, bank, now) -> None:
        """Invalidate a spilled entry, moving its info into the data block
        (which becomes corrupted exclusive)."""
        if self.observer.enabled:
            self.observer.emit("tiny:unspill", cycle=now, addr=spill.tag)
        coh, stra = spill.coh, spill.stra
        bank.remove(spill)
        if line is None:
            return
        line.coh = coh
        line.stra = stra
        self._mark_tracked(line, bank, now)

    # ------------------------------------------------------------------
    # Tracking placement: tiny-directory allocation and spilling
    # ------------------------------------------------------------------

    def _consider_tracking(self, addr, line, bank, home, now) -> None:
        """Try to move ``line``'s tracking into the tiny directory or a
        spilled entry; on success the data block returns to a valid state
        (reconstructed along the forwarded request, §IV)."""
        coh, stra = line.coh, line.stra
        category = stra.category()
        entry, victim = self.tiny.try_allocate(addr, category, coh, stra, now)
        if entry is not None:
            if self.observer.enabled:
                self.observer.emit("tiny:alloc", cycle=now, addr=addr)
                if victim is not None:
                    self.observer.emit(
                        "tiny:evict", cycle=now, addr=victim.addr,
                        holders=victim.coh.holders(),
                    )
            if victim is not None:
                self._rehome_victim(victim, now)
            self._detach_tracking(line, bank)
            return
        if self.observer.enabled:
            self.observer.emit("tiny:decline", cycle=now, addr=addr)
        if not self.spill_enabled:
            return
        if not self.spill_policies[home].allows(category):
            return
        spill_line, svictim = bank.insert_spill(addr, coh, stra)
        if spill_line is None:
            return  # no-spill sample set
        if svictim is not None:
            if svictim is line:
                # Degenerate: spilling displaced the very block it tracks.
                bank.remove(spill_line)
                self._handle_llc_victim(svictim, now)
                return
            self._handle_llc_victim(svictim, now)
        if self.observer.enabled:
            self.observer.emit("tiny:spill", cycle=now, addr=addr)
        self.stats.spills += 1
        self._detach_tracking(line, bank)

    def _detach_tracking(self, line, bank) -> None:
        """Reconstruct the data block after its tracking moved elsewhere."""
        was_corrupted = line.state is LLC_CORRUPTED
        line.coh = None
        line.stra = None
        line.state = LLC_DIRTY if line.underlying_dirty else LLC_CLEAN
        line.underlying_dirty = False
        if was_corrupted:
            # The forwarded target also ships the borrowed bits to the LLC.
            self._messages[COHERENCE_PARTIAL] += 1
            bank.data_writes += 1

    def _rehome_victim(self, victim_entry, now) -> None:
        """A tiny-directory victim: transfer its state to the LLC block
        (corrupting it), spill it, or — if the data block is gone —
        back-invalidate (§IV)."""
        vaddr = victim_entry.addr
        coh, stra = victim_entry.coh, victim_entry.stra
        if coh.is_idle:
            return
        bank = self.banks[vaddr % self.num_banks]
        vline, vspill = bank.lookup(vaddr, touch=False)
        if vspill is not None:
            raise ProtocolError(
                f"block {vaddr:#x} tracked in both tiny directory and spill"
            )
        if vline is None:
            self._back_invalidate(vaddr, coh, now)
            return
        if self.spill_enabled and coh.is_shared:
            home = vaddr % self.num_banks
            if self.spill_policies[home].allows(stra.category()):
                spill_line, svictim = bank.insert_spill(vaddr, coh, stra)
                if spill_line is not None:
                    if svictim is vline:
                        bank.remove(spill_line)
                        self._back_invalidate(vaddr, coh, now)
                        self._handle_llc_victim(svictim, now)
                        return
                    if svictim is not None:
                        self._handle_llc_victim(svictim, now)
                    if self.observer.enabled:
                        self.observer.emit("tiny:rehome_spill", cycle=now, addr=vaddr)
                    self.stats.spills += 1
                    return
        # Corrupt the victim's data line with the transferred state.
        if self.observer.enabled:
            self.observer.emit("tiny:rehome_corrupt", cycle=now, addr=vaddr)
        vline.coh = coh
        vline.stra = stra
        self._mark_tracked(vline, bank, now)

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        """Serve an eviction notice in one frame.

        A home with a tiny directory probes its index, then the spilled
        entries: a notice for a block the tiny directory tracks counts no
        tag lookup (plus one for a dirty copy's data deposit), and the
        spilled entry's probe counts one. A block tracked in its LLC
        line, or not at all, takes the line's notice, which counts one
        more: under a tiny directory that makes two, although one tag
        access finds both (a known double count, see docs/protocol.md).
        """
        observer = self.observer
        if observer.enabled:
            observer.emit(
                "req:evict_notice", cycle=now, core=core, addr=addr, state=state.name
            )
        bank = self.banks[addr % self.num_banks]
        line = bank._blocks.get(addr)
        messages = self._messages
        if self.tiny is not None:
            entry = self.tiny._index.get(addr)
            if entry is not None:
                coh = entry.coh
            else:
                bank.tag_lookups += 1
                spills = bank._spills
                spill = spills.get(addr) if spills else None
                coh = spill.coh if spill is not None else None
            if coh is not None:
                # The notice (carrying the data of an M copy) and its
                # acknowledgement.
                if state is MODIFIED:
                    messages[WRITEBACK_DATA] += 1
                    messages[WRITEBACK_CONTROL] += 1
                else:
                    messages[WRITEBACK_CONTROL] += 2
                if coh.owner == core:
                    coh.owner = None
                coh.sharers &= ~(1 << core)
                if coh.owner is None and not coh.sharers:
                    if entry is not None:
                        self.tiny.remove(addr)
                    else:
                        bank.remove(spill)
                if state is MODIFIED:
                    # The dirty data goes to the LLC line, else to memory;
                    # the deposit counts its own tag lookup.
                    bank.tag_lookups += 1
                    if line is not None:
                        if line.state is LLC_CORRUPTED:
                            line.underlying_dirty = True
                        else:
                            line.state = LLC_DIRTY
                        bank.data_writes += 1
                    else:
                        self._dram_write(addr, now)
                return
        # The line's notice: LLCBank.lookup(addr, touch=False), in this frame.
        bank.tag_lookups += 1
        if line is None or line.coh is None:
            # The line (and its tracking) was concurrently evicted and the
            # holders back-invalidated; nothing to update. The notice and
            # its acknowledgement.
            messages[WRITEBACK_CONTROL] += 2
            return
        # Control messages: the acknowledgement, plus the notice itself
        # unless it carries data or the borrowed bits.
        controls = 1
        if state is MODIFIED:
            messages[WRITEBACK_DATA] += 1
            line.underlying_dirty = True
            bank.data_writes += 1
        elif state is EXCLUSIVE and not self.tag_extended:
            # The notice carries the borrowed bits for reconstruction.
            messages[WRITEBACK_PARTIAL] += 1
        else:
            controls = 2
        coh = line.coh
        if coh.owner == core:
            coh.owner = None
        coh.sharers &= ~(1 << core)
        if coh.owner is None and not coh.sharers:
            if state is SHARED and not self.tag_extended:
                # Last sharer: the LLC requests the borrowed bits back.
                controls += 1
                messages[WRITEBACK_PARTIAL] += 1
            # The last copy is gone: the line returns to the unowned
            # valid state.
            if observer.enabled:
                observer.emit("llc:restore", cycle=now, addr=addr)
            line.coh = None
            line.stra = None
            if not self.tag_extended:
                line.state = LLC_DIRTY if line.underlying_dirty else LLC_CLEAN
                line.underlying_dirty = False
                bank.data_writes += 1
        messages[WRITEBACK_CONTROL] += controls

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        """True when some structure records ``core`` holding ``addr``."""
        if self.tiny is not None:
            entry = self.tiny.find_quiet(addr)
            if entry is not None and entry.coh.holds(core):
                return True
        bank = self.banks[self.bank_of(addr)]
        line, spill = bank.peek(addr)
        if line is not None and line.coh is not None and line.coh.holds(core):
            return True
        return spill is not None and spill.coh.holds(core)

    def check_invariants(self) -> None:
        for bank in self.banks:
            for line in bank.iter_lines():
                if line.state is LLC_SPILLED_ENTRY or line.coh is None:
                    continue
                for holder in line.coh.holders():
                    state = self.cores[holder].state_of(line.tag)
                    if state is INVALID:
                        raise InvariantViolation(
                            f"LLC tracks core {holder} holding {line.tag:#x} "
                            f"but its cache does not",
                            addr=line.tag,
                            cores=(holder,),
                        )
        self._check_single_writer()
        for core in self.cores:
            for addr, _ in core.resident_blocks():
                if not self._tracks(addr, core.core_id):
                    raise InvariantViolation(
                        f"core {core.core_id} caches {addr:#x} but no LLC "
                        f"line tracks it",
                        addr=addr,
                        cores=(core.core_id,),
                    )
        if self.tiny is None:
            return
        for entry in self.tiny.iter_entries():
            for holder in entry.coh.holders():
                if not self.cores[holder].holds(entry.addr):
                    raise InvariantViolation(
                        f"tiny directory tracks core {holder} holding "
                        f"{entry.addr:#x} but its cache does not",
                        addr=entry.addr,
                        cores=(holder,),
                    )
        for bank in self.banks:
            for line in bank.iter_lines():
                if line.state is LLC_SPILLED_ENTRY:
                    data_line, _ = bank.peek(line.tag)
                    if data_line is None:
                        raise InvariantViolation(
                            f"spilled entry {line.tag:#x} without its data block",
                            addr=line.tag,
                        )
                    for holder in line.coh.holders():
                        if not self.cores[holder].holds(line.tag):
                            raise InvariantViolation(
                                f"spilled entry tracks core {holder} holding "
                                f"{line.tag:#x} but its cache does not",
                                addr=line.tag,
                                cores=(holder,),
                            )


class TinyHome(InLLCHome):
    """In-LLC tracking plus the tiny directory (and optional spilling)."""

    __slots__ = ()

    def __init__(
        self,
        config,
        mesh,
        dram,
        cores,
        stats,
        tiny: TinyDirectory,
        spill_enabled: bool = False,
        spill_config: "SpillConfig | None" = None,
        stra_limit: int = 63,
    ) -> None:
        super().__init__(config, mesh, dram, cores, stats, tag_extended=False)
        self.stra_limit = stra_limit
        self.tiny = tiny
        self.spill_enabled = spill_enabled
        self.spill_policies = [
            DynamicSpillPolicy(spill_config) for _ in range(self.num_banks)
        ]
