"""Home controllers for in-LLC tracking and the tiny directory.

:class:`InLLCHome` implements Section III of the paper: there is no
sparse directory, and a block's location/sharers are tracked by borrowing
a few bits of the block's LLC data way (the *corrupted* states of Tables
III/IV). Reads to corrupted-shared blocks must be forwarded to an elected
sharer, lengthening their critical path to three hops — the design's key
shortcoming. The ``tag_extended`` flag selects the storage-heavy variant
whose LLC tags carry the tracking state instead, leaving data intact
(left bars of Fig. 4).

:class:`TinyHome` implements Section IV: the in-LLC mechanism augmented
with a tiny directory that tracks the high-STRA subset of shared blocks,
and optionally with dynamic spilling of tracking entries into LLC ways.
"""

from __future__ import annotations

from repro.cache.llc import LLCLine
from repro.coherence.base import BaseHome
from repro.coherence.info import CohInfo
from repro.coherence.transaction import AccessOutcome
from repro.core.spill import DynamicSpillPolicy, SpillConfig
from repro.core.stra import StraCounters
from repro.core.tiny_directory import TinyDirectory
from repro.errors import InvariantViolation, ProtocolError
from repro.interconnect.traffic import COHERENCE, PROCESSOR, WRITEBACK
from repro.types import (
    EXCLUSIVE,
    IFETCH,
    INVALID,
    LLC_CLEAN,
    LLC_CORRUPTED,
    LLC_DIRTY,
    MODIFIED,
    SHARED,
    WRITE,
    AccessKind,
    PrivateState,
)


class InLLCHome(BaseHome):
    """Home node tracking coherence inside the LLC (no sparse directory)."""

    __slots__ = ("tag_extended", "stra_limit")

    def __init__(self, config, mesh, dram, cores, stats, tag_extended=False) -> None:
        super().__init__(config, mesh, dram, cores, stats)
        self.tag_extended = tag_extended
        #: Saturation value of freshly created STRA counters (six-bit in
        #: the paper; widened/narrowed by the ablation knob).
        self.stra_limit = 63

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def _corrupted_extra(self, line: LLCLine) -> int:
        """Extra LLC serialization for decoding a corrupted block (§IV-C):
        the data read plus the state-decoder cycle."""
        if self.tag_extended or line.state is not LLC_CORRUPTED:
            return 0
        return self.config.llc_data_latency + self.config.corrupted_decode_latency

    def _mark_tracked(self, line: LLCLine, bank) -> None:
        """Move a valid line into the corrupted (tracking) state."""
        if self.coverage.enabled:
            self.coverage.note("llc:mark_tracked")
        if self.tag_extended:
            return
        line.underlying_dirty = line.underlying_dirty or line.state is LLC_DIRTY
        line.state = LLC_CORRUPTED
        bank.data_writes += 1  # the borrowed bits are written in the data array

    def _restore_line(self, line: LLCLine, bank) -> None:
        """Return a line to the unowned valid state (last copy gone)."""
        if self.coverage.enabled:
            self.coverage.note("llc:restore")
        line.coh = None
        line.stra = None
        if self.tag_extended:
            return
        line.state = LLC_DIRTY if line.underlying_dirty else LLC_CLEAN
        line.underlying_dirty = False
        bank.data_writes += 1

    def _fill_llc(self, addr: int, now: int) -> LLCLine:
        bank = self.banks[addr % self.num_banks]
        line, victim = bank.insert_block(addr, LLC_CLEAN)
        if victim is not None:
            self._handle_llc_victim(victim, now)
        return line

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        self._flush_residency(victim)
        if victim.coh is not None and not victim.coh.is_idle:
            if self.coverage.enabled:
                self.coverage.note("llc:evict_tracked")
            self._evict_tracked_victim(victim, now)
        elif victim.state is LLC_DIRTY or victim.underlying_dirty:
            if self.coverage.enabled:
                self.coverage.note("llc:evict_dirty")
            self._dram_write(victim.tag, now)

    def _evict_tracked_victim(self, victim: LLCLine, now: int) -> None:
        """Reconstruct and back-invalidate an evicted corrupted block."""
        addr = victim.tag
        coh = victim.coh
        dirty = victim.underlying_dirty
        holders = coh.holders()
        if self.recorder.enabled:
            self.recorder.record(addr, "back_invalidate", detail=f"holders={holders}")
        had_modified = False
        for holder in holders:
            prior = self.cores[holder].invalidate(addr)
            self.traffic.control(COHERENCE)  # invalidation
            if prior is MODIFIED:
                had_modified = True
                self.traffic.data(COHERENCE)  # data response
            else:
                self.traffic.control(COHERENCE)  # ack
            self.stats.invalidations += 1
            self.stats.back_invalidations += 1
        if not self.tag_extended and not had_modified and holders:
            # One holder supplies the borrowed bits for reconstruction.
            self.traffic.partial(COHERENCE)
        if dirty or had_modified:
            self._dram_write(addr, now)
        coh.clear()

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
    ) -> AccessOutcome:
        out = AccessOutcome()
        home = addr % self.num_banks
        bank = self.banks[home]
        if self.recorder.enabled:
            self.recorder.record(
                addr, "upgrade" if upgrade else kind.name.lower(), core=core
            )
        self.traffic.control(PROCESSOR)
        line, _ = bank.lookup(addr)

        if upgrade:
            if line is None or line.coh is None:
                raise ProtocolError(f"upgrade for untracked block {addr:#x}")
            self._record_stra(line, shared_read=False)
            self._serve_upgrade(core, addr, line, bank, home, now, out)
            return out

        if line is None:
            out.latency = self._two_hop(core, home) + self._dram_fetch(addr, now, out)
            line = self._fill_llc(addr, now)
            self._take_ownership(core, kind, line, bank, out)
        elif line.coh is None:
            out.latency = self._two_hop(core, home)
            self._take_ownership(core, kind, line, bank, out)
        else:
            shared_read = kind.is_read and line.coh.is_shared
            self._record_stra(line, shared_read)
            if kind.is_read:
                line.total_reads += 1
                if shared_read:
                    line.fwd_reads += 1
            if line.coh.is_exclusive:
                self._serve_tracked_exclusive(core, addr, kind, line, bank, home, now, out)
            else:
                self._serve_tracked_shared(core, addr, kind, line, bank, home, now, out)
            line.note_holders(line.coh)
        return out

    @staticmethod
    def _record_stra(line: LLCLine, shared_read: bool) -> None:
        if line.stra is None:
            return
        if shared_read:
            line.stra.record_shared_read()
        else:
            line.stra.record_other()

    def _take_ownership(self, core, kind, line, bank, out) -> None:
        """A request to an unowned valid block: the requester takes it."""
        coh = CohInfo()
        if kind is WRITE:
            coh.set_owner(core)
            out.fill_state = MODIFIED
        elif kind is IFETCH:
            coh.add_sharer(core)
            out.fill_state = SHARED
        else:
            coh.set_owner(core)
            out.fill_state = EXCLUSIVE
        line.coh = coh
        line.stra = StraCounters(limit=self.stra_limit)
        line.stra.record_other()
        self._mark_tracked(line, bank)
        line.note_holders(coh)
        if kind.is_read:
            line.total_reads += 1
        self.traffic.data(PROCESSOR)

    def _serve_tracked_exclusive(self, core, addr, kind, line, bank, home, now, out) -> None:
        coh = line.coh
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        out.hops = 3
        out.latency = self._three_hop(core, home, owner, self._corrupted_extra(line))
        self.traffic.control(COHERENCE)  # forward
        self.traffic.data(PROCESSOR)  # owner -> requester
        self.traffic.control(COHERENCE)  # busy-clear
        if kind is WRITE:
            prior = self.cores[owner].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale owner for block {addr:#x}")
            self.stats.invalidations += 1
            coh.set_owner(core)
            out.fill_state = MODIFIED
        else:
            prior = self.cores[owner].downgrade(addr)
            if prior is MODIFIED:
                # Dirty data is deposited in the (corrupted) LLC line's
                # intact data portion.
                self.traffic.data(WRITEBACK)
                line.underlying_dirty = True
                bank.data_writes += 1
            coh.add_sharer(core)
            out.fill_state = SHARED

    def _serve_tracked_shared(self, core, addr, kind, line, bank, home, now, out) -> None:
        coh = line.coh
        extra = self._corrupted_extra(line)
        if kind is WRITE:
            holders = coh.sharer_list()
            forwarder = self._closest_sharer(coh, home)
            inval_path = self._invalidation_latency(home, holders, core)
            base = self._three_hop(core, home, forwarder, extra)
            out.hops = 3
            out.latency = max(
                base,
                self.mesh.latency(core, home)
                + self.config.llc_tag_latency
                + extra
                + inval_path,
            )
            for holder in holders:
                prior = self.cores[holder].invalidate(addr)
                if prior is INVALID:
                    raise ProtocolError(f"stale sharer for block {addr:#x}")
                self.stats.invalidations += 1
                self.traffic.control(COHERENCE)  # invalidation
                if holder == forwarder:
                    self.traffic.data(PROCESSOR)  # special ack
                else:
                    self.traffic.control(COHERENCE)  # ack
            coh.set_owner(core)
            out.fill_state = MODIFIED
        else:
            if self.tag_extended:
                # The LLC data is intact: serve in two hops.
                out.latency = self._two_hop(core, home)
                self.traffic.data(PROCESSOR)
            else:
                if self.coverage.enabled:
                    self.coverage.note("llc:lengthened_read")
                forwarder = self._closest_sharer(coh, home)
                out.hops = 3
                out.lengthened = True
                out.latency = self._three_hop(core, home, forwarder, extra)
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
            coh.add_sharer(core)
            out.fill_state = SHARED

    def _serve_upgrade(self, core, addr, line, bank, home, now, out) -> None:
        coh = line.coh
        if not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} it is not recorded "
                f"sharing"
            )
        out.is_upgrade = True
        extra = self._corrupted_extra(line)
        holders = [h for h in coh.sharer_list() if h != core]
        inval_path = self._invalidation_latency(home, holders, core)
        for holder in holders:
            prior = self.cores[holder].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale sharer for block {addr:#x}")
            self.stats.invalidations += 1
            self.traffic.control(COHERENCE)
            self.traffic.control(COHERENCE)
        coh.set_owner(core)
        self.traffic.control(PROCESSOR)
        request_leg = (
            self.mesh.latency(core, home) + self.config.llc_tag_latency + extra
        )
        out.latency = request_leg + max(self.mesh.latency(home, core), inval_path)
        out.hops = 2 if not holders else 3
        self._mark_tracked(line, bank)

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        if self.recorder.enabled:
            self.recorder.record(addr, "evict_notice", core=core, detail=state.name)
        bank = self.banks[addr % self.num_banks]
        line, _ = bank.lookup(addr, touch=False)
        if line is None or line.coh is None:
            # The line (and its tracking) was concurrently evicted and the
            # holders back-invalidated; nothing to update.
            self.traffic.control(WRITEBACK)
            self.traffic.control(WRITEBACK)
            return
        coh = line.coh
        if state is MODIFIED:
            self.traffic.data(WRITEBACK)
            line.underlying_dirty = True
            bank.data_writes += 1
        elif state is EXCLUSIVE and not self.tag_extended:
            # The notice carries the borrowed bits for reconstruction.
            self.traffic.partial(WRITEBACK)
        else:
            self.traffic.control(WRITEBACK)
        coh.remove(core)
        if coh.is_idle:
            if (
                state is SHARED
                and not self.tag_extended
            ):
                # Last sharer: the LLC requests the borrowed bits back.
                self.traffic.control(WRITEBACK)
                self.traffic.partial(WRITEBACK)
            self._restore_line(line, bank)
        self.traffic.control(WRITEBACK)  # acknowledgement

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr: int, truth, now: int = 0) -> str:
        """Repair the LLC line's borrowed tracking bits against ``truth``."""
        bank = self.banks[self.bank_of(addr)]
        line, _ = bank.peek(addr)
        if line is None:
            if truth.is_idle:
                return "llc:already-absent"
            # Private copies exist but the home data line is gone:
            # refetch the block and re-mark it as tracking.
            line = self._fill_llc(addr, now)
        if truth.is_idle:
            if line.coh is not None:
                self._restore_line(line, bank)
                return "llc:restored"
            return "llc:already-untracked"
        if line.coh is None:
            line.coh = truth.copy()
            line.stra = StraCounters(limit=self.stra_limit)
            self._mark_tracked(line, bank)
        else:
            line.coh.owner = truth.owner
            line.coh.sharers = truth.sharers
        line.note_holders(line.coh)
        return "llc:rewritten"

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        """True when some structure records ``core`` holding ``addr``."""
        bank = self.banks[self.bank_of(addr)]
        line, spill = bank.peek(addr)
        if line is not None and line.coh is not None and line.coh.holds(core):
            return True
        return spill is not None and spill.coh.holds(core)

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

    def check_invariants(self) -> None:
        for bank in self.banks:
            for line in bank.iter_lines():
                if line.is_spill or line.coh is None:
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


class TinyHome(InLLCHome):
    """In-LLC tracking plus the tiny directory (and optional spilling)."""

    __slots__ = ("tiny", "spill_enabled", "spill_policies")

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
    ) -> AccessOutcome:
        out = AccessOutcome()
        home = addr % self.num_banks
        bank = self.banks[home]
        if self.recorder.enabled:
            self.recorder.record(
                addr, "upgrade" if upgrade else kind.name.lower(), core=core
            )
        self.traffic.control(PROCESSOR)
        entry = self.tiny.lookup(addr, now)
        line, spill = bank.lookup(addr)
        shared_read = False

        if upgrade:
            if entry is not None:
                entry.stra.record_other()
                self._serve_tracked_upgrade(core, addr, entry.coh, home, now, out)
            elif spill is not None:
                spill.stra.record_other()
                self._serve_tracked_upgrade(core, addr, spill.coh, home, now, out)
                # A write transfers the spilled info back into the data
                # block, which switches to corrupted exclusive (§IV-B1).
                out.latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank)
            else:
                if line is None or line.coh is None:
                    raise ProtocolError(f"upgrade for untracked block {addr:#x}")
                self._record_stra(line, shared_read=False)
                self._serve_upgrade(core, addr, line, bank, home, now, out)
        elif entry is not None:
            if self.coverage.enabled:
                self.coverage.note("tiny:hit")
            shared_read = self._serve_via_tracker(
                core, addr, kind, entry.coh, entry.stra, line, bank, home, now, out,
                via_spill=False,
            )
            if entry.coh.is_idle:
                self.tiny.remove(addr)
        elif spill is not None:
            if self.coverage.enabled:
                self.coverage.note("tiny:spill_hit")
            shared_read = self._serve_via_tracker(
                core, addr, kind, spill.coh, spill.stra, line, bank, home, now, out,
                via_spill=True,
            )
            if kind is WRITE:
                out.latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank)
            elif spill.coh.is_idle:
                bank.remove(spill)
        elif line is None or line.coh is None:
            if line is None:
                out.latency = (
                    self._two_hop(core, home) + self._dram_fetch(addr, now, out)
                )
                line = self._fill_llc(addr, now)
            else:
                out.latency = self._two_hop(core, home)
            self._take_ownership(core, kind, line, bank, out)
            if kind is IFETCH:
                # Allocation situation (ii): an instruction read to an
                # unowned block (§IV).
                self._consider_tracking(addr, line, bank, home, now)
        else:
            shared_read = kind.is_read and line.coh.is_shared
            self._record_stra(line, shared_read)
            if kind.is_read:
                line.total_reads += 1
                if shared_read:
                    line.fwd_reads += 1
            if line.coh.is_exclusive:
                self._serve_tracked_exclusive(core, addr, kind, line, bank, home, now, out)
            else:
                self._serve_tracked_shared(core, addr, kind, line, bank, home, now, out)
            line.note_holders(line.coh)
            if kind.is_read:
                # Allocation situation (i): a read to a corrupted block.
                self._consider_tracking(addr, line, bank, home, now)

        if self.spill_enabled:
            self.spill_policies[home].record_access(
                in_sample_set=bank.is_no_spill_set(bank.set_index(addr)),
                is_miss=out.dram_access,
                is_shared_read=shared_read,
            )
        return out

    # ------------------------------------------------------------------
    # Serving accesses whose tracking lives in the tiny directory or a
    # spilled entry: the LLC data stays valid, so shared reads take two
    # hops — the whole point of the proposal.
    # ------------------------------------------------------------------

    def _serve_via_tracker(
        self, core, addr, kind, coh, stra, line, bank, home, now, out, via_spill
    ) -> bool:
        shared_read = kind.is_read and coh.is_shared
        if shared_read:
            stra.record_shared_read()
        else:
            stra.record_other()
        line_valid = line is not None
        if line is not None and kind.is_read:
            line.total_reads += 1
            if shared_read:
                line.fwd_reads += 1
        if kind is WRITE:
            if coh.is_exclusive:
                owner = coh.owner
                if owner == core:
                    raise ProtocolError(
                        f"core {core} missed on owned block {addr:#x}"
                    )
                out.hops = 3
                out.latency = self._three_hop(core, home, owner)
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
                prior = self.cores[owner].invalidate(addr)
                if prior is INVALID:
                    raise ProtocolError(f"stale owner for block {addr:#x}")
                self.stats.invalidations += 1
            else:
                holders = coh.sharer_list()
                inval_path = self._invalidation_latency(home, holders, core)
                base = (
                    self._two_hop(core, home)
                    if line_valid
                    else self._three_hop(core, home, self._closest_sharer(coh, home))
                )
                self.traffic.data(PROCESSOR)
                for holder in holders:
                    prior = self.cores[holder].invalidate(addr)
                    if prior is INVALID:
                        raise ProtocolError(f"stale sharer for block {addr:#x}")
                    self.stats.invalidations += 1
                    self.traffic.control(COHERENCE)
                    self.traffic.control(COHERENCE)
                out.latency = max(
                    base,
                    self.mesh.latency(core, home)
                    + self.config.llc_tag_latency
                    + inval_path,
                )
            coh.set_owner(core)
            out.fill_state = MODIFIED
        elif coh.is_exclusive:
            owner = coh.owner
            if owner == core:
                raise ProtocolError(f"core {core} missed on owned block {addr:#x}")
            out.hops = 3
            out.latency = self._three_hop(core, home, owner)
            self.traffic.control(COHERENCE)
            self.traffic.data(PROCESSOR)
            self.traffic.control(COHERENCE)
            prior = self.cores[owner].downgrade(addr)
            if prior is MODIFIED:
                self.traffic.data(WRITEBACK)
                if line is not None:
                    line.underlying_dirty = True
                    bank.data_writes += 1
                else:
                    self._dram_write(addr, now)
            coh.add_sharer(core)
            out.fill_state = SHARED
        else:
            if line_valid:
                out.latency = self._two_hop(core, home)
                self.traffic.data(PROCESSOR)
                if via_spill and shared_read:
                    out.spill_saved = True
            else:
                # Tracked in the tiny directory but the LLC data line was
                # evicted: forward to a sharer and refill.
                if self.coverage.enabled:
                    self.coverage.note("tiny:fwd_refill")
                forwarder = self._closest_sharer(coh, home)
                out.hops = 3
                out.latency = self._three_hop(core, home, forwarder)
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
            coh.add_sharer(core)
            out.fill_state = SHARED
        if line is not None:
            line.note_holders(coh)
        return shared_read

    def _serve_tracked_upgrade(self, core, addr, coh, home, now, out) -> None:
        if not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} it is not recorded "
                f"sharing"
            )
        out.is_upgrade = True
        holders = [h for h in coh.sharer_list() if h != core]
        inval_path = self._invalidation_latency(home, holders, core)
        for holder in holders:
            prior = self.cores[holder].invalidate(addr)
            if prior is INVALID:
                raise ProtocolError(f"stale sharer for block {addr:#x}")
            self.stats.invalidations += 1
            self.traffic.control(COHERENCE)
            self.traffic.control(COHERENCE)
        coh.set_owner(core)
        self.traffic.control(PROCESSOR)
        request_leg = self.mesh.latency(core, home) + self.config.llc_tag_latency
        out.latency = request_leg + max(self.mesh.latency(home, core), inval_path)
        out.hops = 2 if not holders else 3

    def _unspill_into_line(self, spill, line, bank) -> None:
        """Invalidate a spilled entry, moving its info into the data block
        (which becomes corrupted exclusive)."""
        if self.coverage.enabled:
            self.coverage.note("tiny:unspill")
        if self.tracer.enabled:
            self.tracer.emit("tiny:unspill", addr=spill.tag)
        coh, stra = spill.coh, spill.stra
        bank.remove(spill)
        if line is None:
            return
        line.coh = coh
        line.stra = stra
        self._mark_tracked(line, bank)

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
            if self.coverage.enabled:
                self.coverage.note("tiny:alloc")
            if self.tracer.enabled:
                self.tracer.emit("tiny:alloc", cycle=now, addr=addr)
            if victim is not None:
                if self.coverage.enabled:
                    self.coverage.note("tiny:evict")
                if self.tracer.enabled:
                    self.tracer.emit(
                        "tiny:evict", cycle=now, addr=victim.addr
                    )
                self._rehome_victim(victim, now)
            self._detach_tracking(line, bank)
            return
        if self.coverage.enabled:
            self.coverage.note("tiny:decline")
        if self.tracer.enabled:
            self.tracer.emit("tiny:decline", cycle=now, addr=addr)
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
        if self.coverage.enabled:
            self.coverage.note("tiny:spill")
        if self.tracer.enabled:
            self.tracer.emit("tiny:spill", cycle=now, addr=addr)
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
            self.traffic.partial(COHERENCE)
            bank.data_writes += 1

    def _rehome_victim(self, victim_entry, now) -> None:
        """A tiny-directory victim: transfer its state to the LLC block
        (corrupting it), spill it, or — if the data block is gone —
        back-invalidate (§IV)."""
        vaddr = victim_entry.addr
        coh, stra = victim_entry.coh, victim_entry.stra
        if coh.is_idle:
            return
        if self.recorder.enabled:
            self.recorder.record(vaddr, "tiny_rehome", detail=f"holders={coh.holders()}")
        bank = self.banks[vaddr % self.num_banks]
        vline, vspill = bank.lookup(vaddr, touch=False)
        if vspill is not None:
            raise ProtocolError(
                f"block {vaddr:#x} tracked in both tiny directory and spill"
            )
        if vline is None:
            self._back_invalidate_untracked(vaddr, coh, now)
            return
        if self.spill_enabled and coh.is_shared:
            home = vaddr % self.num_banks
            if self.spill_policies[home].allows(stra.category()):
                spill_line, svictim = bank.insert_spill(vaddr, coh, stra)
                if spill_line is not None:
                    if svictim is vline:
                        bank.remove(spill_line)
                        self._back_invalidate_untracked(vaddr, coh, now)
                        self._handle_llc_victim(svictim, now)
                        return
                    if svictim is not None:
                        self._handle_llc_victim(svictim, now)
                    if self.coverage.enabled:
                        self.coverage.note("tiny:rehome_spill")
                    self.stats.spills += 1
                    return
        # Corrupt the victim's data line with the transferred state.
        if self.coverage.enabled:
            self.coverage.note("tiny:rehome_corrupt")
        vline.coh = coh
        vline.stra = stra
        self._mark_tracked(vline, bank)

    def _back_invalidate_untracked(self, addr, coh, now) -> None:
        if self.recorder.enabled:
            self.recorder.record(addr, "back_invalidate", detail=f"holders={coh.holders()}")
        if self.coverage.enabled:
            self.coverage.note("llc:back_invalidate")
        if self.tracer.enabled:
            self.tracer.emit(
                "back_inval", cycle=now, addr=addr, holders=coh.holders()
            )
        had_dirty = False
        for holder in coh.holders():
            prior = self.cores[holder].invalidate(addr)
            self.traffic.control(COHERENCE)
            if prior is MODIFIED:
                had_dirty = True
                self.traffic.data(COHERENCE)
            else:
                self.traffic.control(COHERENCE)
            self.stats.invalidations += 1
            self.stats.back_invalidations += 1
        if had_dirty:
            self._dram_write(addr, now)
        coh.clear()

    # ------------------------------------------------------------------
    # LLC victims: spilled entries and companions need special care
    # ------------------------------------------------------------------

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        bank = self.banks[victim.tag % self.num_banks]
        if victim.is_spill:
            # Transfer the tracking back into the companion data block.
            b_line, _ = bank.lookup(victim.tag, touch=False)
            if b_line is not None and b_line.coh is None:
                if self.coverage.enabled:
                    self.coverage.note("tiny:recall")
                b_line.coh = victim.coh
                b_line.stra = victim.stra
                self._mark_tracked(b_line, bank)
            else:
                self._back_invalidate_untracked(victim.tag, victim.coh, now)
            return
        # A data line: drop any spilled companion alongside it.
        _, spill = bank.lookup(victim.tag, touch=False)
        if spill is not None:
            bank.remove(spill)
            self._back_invalidate_untracked(victim.tag, spill.coh, now)
            self._flush_residency(victim)
            if victim.state is LLC_DIRTY or victim.underlying_dirty:
                self._dram_write(victim.tag, now)
            return
        super()._handle_llc_victim(victim, now)

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        if self.recorder.enabled:
            self.recorder.record(addr, "evict_notice", core=core, detail=state.name)
        entry = self.tiny.find_quiet(addr)
        bank = self.banks[addr % self.num_banks]
        if entry is not None:
            self._notice_traffic(state, partial=False)
            entry.coh.remove(core)
            if entry.coh.is_idle:
                self.tiny.remove(addr)
            if state is MODIFIED:
                self._deposit_dirty(addr, bank, now)
            return
        line, spill = bank.lookup(addr, touch=False)
        if spill is not None:
            self._notice_traffic(state, partial=False)
            spill.coh.remove(core)
            if spill.coh.is_idle:
                bank.remove(spill)
            if state is MODIFIED:
                self._deposit_dirty(addr, bank, now)
            return
        super().handle_private_eviction(core, addr, state, now)

    def _notice_traffic(self, state: PrivateState, partial: bool) -> None:
        if state is MODIFIED:
            self.traffic.data(WRITEBACK)
        elif partial:
            self.traffic.partial(WRITEBACK)
        else:
            self.traffic.control(WRITEBACK)
        self.traffic.control(WRITEBACK)  # acknowledgement

    def _deposit_dirty(self, addr, bank, now) -> None:
        line, _ = bank.lookup(addr, touch=False)
        if line is not None and not line.is_spill:
            if line.state is LLC_CORRUPTED:
                line.underlying_dirty = True
            else:
                line.state = LLC_DIRTY
            bank.data_writes += 1
        else:
            self._dram_write(addr, now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr, truth, now=0):
        entry = self.tiny.find_quiet(addr)
        if entry is not None:
            if truth.is_idle:
                self.tiny.remove(addr)
                return "tiny:removed"
            entry.coh.owner = truth.owner
            entry.coh.sharers = truth.sharers
            return "tiny:rewritten"
        bank = self.banks[self.bank_of(addr)]
        _, spill = bank.peek(addr)
        if spill is not None:
            if truth.is_idle:
                bank.remove(spill)
                return "spill:removed"
            spill.coh.owner = truth.owner
            spill.coh.sharers = truth.sharers
            return "spill:rewritten"
        return super().rebuild_tracking(addr, truth, now)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        entry = self.tiny.find_quiet(addr)
        if entry is not None and entry.coh.holds(core):
            return True
        return super()._tracks(addr, core)

    def check_invariants(self) -> None:
        super().check_invariants()
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
                if line.is_spill:
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
