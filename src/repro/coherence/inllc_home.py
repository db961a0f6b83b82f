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
    LLC_SPILLED_ENTRY,
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

    def _mark_tracked(self, line: LLCLine, bank, now: int) -> None:
        """Move a valid line into the corrupted (tracking) state."""
        if self.observer.enabled:
            self.observer.emit("llc:mark_tracked", cycle=now, addr=line.tag)
        if self.tag_extended:
            return
        line.underlying_dirty = line.underlying_dirty or line.state is LLC_DIRTY
        line.state = LLC_CORRUPTED
        bank.data_writes += 1  # the borrowed bits are written in the data array

    def _restore_line(self, line: LLCLine, bank, now: int) -> None:
        """Return a line to the unowned valid state (last copy gone)."""
        if self.observer.enabled:
            self.observer.emit("llc:restore", cycle=now, addr=line.tag)
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
            self._evict_tracked_victim(victim, now)
        elif victim.state is LLC_DIRTY or victim.underlying_dirty:
            if self.observer.enabled:
                self.observer.emit("llc:evict_dirty", cycle=now, addr=victim.tag)
            self._dram_write(victim.tag, now)

    def _evict_tracked_victim(self, victim: LLCLine, now: int) -> None:
        """Reconstruct and back-invalidate an evicted corrupted block."""
        addr = victim.tag
        coh = victim.coh
        dirty = victim.underlying_dirty
        holders = coh.holders()
        if self.observer.enabled:
            self.observer.emit(
                "llc:evict_tracked", cycle=now, addr=addr, holders=holders
            )
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
        self.traffic.control(PROCESSOR)
        line, _ = bank.lookup(addr)

        if upgrade:
            if line is None or line.coh is None:
                raise ProtocolError(f"upgrade for untracked block {addr:#x}")
            stats.upgrades += 1
            self._record_stra(line, shared_read=False)
            return self._serve_upgrade(core, addr, line, bank, home, now)

        if line is None:
            stats.two_hop += 1
            latency = self._two_hop(core, home) + self._dram_fetch(addr, now)
            line = self._fill_llc(addr, now)
            return latency, self._take_ownership(core, kind, line, bank, now)
        if line.coh is None:
            stats.two_hop += 1
            return (
                self._two_hop(core, home),
                self._take_ownership(core, kind, line, bank, now),
            )
        shared_read = kind is not WRITE and line.coh.is_shared
        self._record_stra(line, shared_read)
        if kind is not WRITE:
            line.total_reads += 1
            if shared_read:
                line.fwd_reads += 1
        if line.coh.is_exclusive:
            result = self._serve_tracked_exclusive(core, addr, kind, line, bank, home)
        else:
            result = self._serve_tracked_shared(core, addr, kind, line, home, now)
        line.note_holders(line.coh)
        return result

    @staticmethod
    def _record_stra(line: LLCLine, shared_read: bool) -> None:
        if line.stra is None:
            return
        if shared_read:
            line.stra.record_shared_read()
        else:
            line.stra.record_other()

    def _take_ownership(self, core, kind, line, bank, now) -> PrivateState:
        """A request to an unowned valid block: the requester takes it.
        Returns the state granted to the requester."""
        if kind is WRITE:
            line.coh = CohInfo(owner=core)
            fill_state = MODIFIED
        elif kind is IFETCH:
            line.coh = CohInfo(sharers=1 << core)
            fill_state = SHARED
        else:
            line.coh = CohInfo(owner=core)
            fill_state = EXCLUSIVE
        line.stra = StraCounters(limit=self.stra_limit)
        line.stra.record_other()
        self._mark_tracked(line, bank, now)
        line.sharers_seen |= 1 << core
        if kind is not WRITE:
            line.total_reads += 1
        self.traffic.data(PROCESSOR)
        return fill_state

    def _serve_tracked_exclusive(self, core, addr, kind, line, bank, home):
        coh = line.coh
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        self.stats.three_hop += 1
        latency = self._three_hop(core, home, owner, self._corrupted_extra(line))
        self.traffic.control(COHERENCE)  # forward
        self.traffic.data(PROCESSOR)  # owner -> requester
        self.traffic.control(COHERENCE)  # busy-clear
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
            self.traffic.data(WRITEBACK)
            line.underlying_dirty = True
            bank.data_writes += 1
        coh.add_sharer(core)
        return latency, SHARED

    def _serve_tracked_shared(self, core, addr, kind, line, home, now):
        stats = self.stats
        coh = line.coh
        extra = self._corrupted_extra(line)
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
                self.traffic.control(COHERENCE)  # invalidation
                if holder == forwarder:
                    self.traffic.data(PROCESSOR)  # special ack
                else:
                    self.traffic.control(COHERENCE)  # ack
            coh.set_owner(core)
            return latency, MODIFIED
        if self.tag_extended:
            # The LLC data is intact: serve in two hops.
            stats.two_hop += 1
            latency = self._two_hop(core, home)
            self.traffic.data(PROCESSOR)
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
            self.traffic.control(COHERENCE)
            self.traffic.data(PROCESSOR)
            self.traffic.control(COHERENCE)
        coh.add_sharer(core)
        return latency, SHARED

    def _serve_upgrade(self, core, addr, line, bank, home, now):
        coh = line.coh
        if not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} it is not recorded "
                f"sharing"
            )
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
            self._latency[core * self._tiles + home] + self._hit_latency_tag + extra
        )
        if holders:
            self.stats.three_hop += 1
        else:
            self.stats.two_hop += 1
        self._mark_tracked(line, bank, now)
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
            self._restore_line(line, bank, now)
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
                self._restore_line(line, bank, now)
                return "llc:restored"
            return "llc:already-untracked"
        if line.coh is None:
            line.coh = truth.copy()
            line.stra = StraCounters(limit=self.stra_limit)
            self._mark_tracked(line, bank, now)
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
        self.traffic.control(PROCESSOR)
        entry = self.tiny.lookup(addr, now)
        line, spill = bank.lookup(addr)
        shared_read = False
        miss = False

        if upgrade:
            stats.upgrades += 1
            if entry is not None:
                entry.stra.record_other()
                latency, fill_state = self._serve_tracked_upgrade(
                    core, addr, entry.coh, home
                )
            elif spill is not None:
                spill.stra.record_other()
                latency, fill_state = self._serve_tracked_upgrade(
                    core, addr, spill.coh, home
                )
                # A write transfers the spilled info back into the data
                # block, which switches to corrupted exclusive (§IV-B1).
                latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank, now)
            else:
                if line is None or line.coh is None:
                    raise ProtocolError(f"upgrade for untracked block {addr:#x}")
                self._record_stra(line, shared_read=False)
                latency, fill_state = self._serve_upgrade(
                    core, addr, line, bank, home, now
                )
        elif entry is not None:
            if self.observer.enabled:
                self.observer.emit("tiny:hit", cycle=now, core=core, addr=addr)
            shared_read = kind is not WRITE and entry.coh.is_shared
            latency, fill_state = self._serve_via_tracker(
                core, addr, kind, entry.coh, entry.stra, line, bank, home, now,
                shared_read, via_spill=False,
            )
            if entry.coh.is_idle:
                self.tiny.remove(addr)
        elif spill is not None:
            if self.observer.enabled:
                self.observer.emit("tiny:spill_hit", cycle=now, core=core, addr=addr)
            shared_read = kind is not WRITE and spill.coh.is_shared
            latency, fill_state = self._serve_via_tracker(
                core, addr, kind, spill.coh, spill.stra, line, bank, home, now,
                shared_read, via_spill=True,
            )
            if kind is WRITE:
                latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank, now)
            elif spill.coh.is_idle:
                bank.remove(spill)
        elif line is None or line.coh is None:
            stats.two_hop += 1
            if line is None:
                miss = True
                latency = self._two_hop(core, home) + self._dram_fetch(addr, now)
                line = self._fill_llc(addr, now)
            else:
                latency = self._two_hop(core, home)
            fill_state = self._take_ownership(core, kind, line, bank, now)
            if kind is IFETCH:
                # Allocation situation (ii): an instruction read to an
                # unowned block (§IV).
                self._consider_tracking(addr, line, bank, home, now)
        else:
            shared_read = kind is not WRITE and line.coh.is_shared
            self._record_stra(line, shared_read)
            if kind is not WRITE:
                line.total_reads += 1
                if shared_read:
                    line.fwd_reads += 1
            if line.coh.is_exclusive:
                latency, fill_state = self._serve_tracked_exclusive(
                    core, addr, kind, line, bank, home
                )
            else:
                latency, fill_state = self._serve_tracked_shared(
                    core, addr, kind, line, home, now
                )
            line.note_holders(line.coh)
            if kind is not WRITE:
                # Allocation situation (i): a read to a corrupted block.
                self._consider_tracking(addr, line, bank, home, now)

        if self.spill_enabled:
            self.spill_policies[home].record_access(
                (addr // self.num_banks) % bank.num_sets in bank.sample_sets,
                miss,
                shared_read,
            )
        return latency, fill_state

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
        if kind is WRITE:
            if coh.is_exclusive:
                owner = coh.owner
                if owner == core:
                    raise ProtocolError(
                        f"core {core} missed on owned block {addr:#x}"
                    )
                stats.three_hop += 1
                latency = self._three_hop(core, home, owner)
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
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
                self.traffic.data(PROCESSOR)
                for holder in holders:
                    prior = self.cores[holder].invalidate(addr)
                    if prior is INVALID:
                        raise ProtocolError(f"stale sharer for block {addr:#x}")
                    stats.invalidations += 1
                    self.traffic.control(COHERENCE)
                    self.traffic.control(COHERENCE)
                latency = max(
                    base,
                    self._latency[core * self._tiles + home]
                    + self._hit_latency_tag
                    + inval_path,
                )
            coh.set_owner(core)
            fill_state = MODIFIED
        elif coh.is_exclusive:
            owner = coh.owner
            if owner == core:
                raise ProtocolError(f"core {core} missed on owned block {addr:#x}")
            stats.three_hop += 1
            latency = self._three_hop(core, home, owner)
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
            fill_state = SHARED
        else:
            if line_valid:
                stats.two_hop += 1
                latency = self._two_hop(core, home)
                self.traffic.data(PROCESSOR)
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
                self.traffic.control(COHERENCE)
                self.traffic.data(PROCESSOR)
                self.traffic.control(COHERENCE)
            coh.add_sharer(core)
            fill_state = SHARED
        if line is not None:
            line.note_holders(coh)
        return latency, fill_state

    def _serve_tracked_upgrade(self, core, addr, coh, home):
        if not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} it is not recorded "
                f"sharing"
            )
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
        request_leg = self._latency[core * self._tiles + home] + self._hit_latency_tag
        if holders:
            self.stats.three_hop += 1
        else:
            self.stats.two_hop += 1
        reply = self._latency[home * self._tiles + core]
        return request_leg + max(reply, inval_path), None

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

    def _back_invalidate_untracked(self, addr, coh, now) -> None:
        if self.observer.enabled:
            self.observer.emit(
                "llc:back_invalidate", cycle=now, addr=addr, holders=coh.holders()
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
        if victim.state is LLC_SPILLED_ENTRY:
            # Transfer the tracking back into the companion data block.
            b_line, _ = bank.lookup(victim.tag, touch=False)
            if b_line is not None and b_line.coh is None:
                if self.observer.enabled:
                    self.observer.emit("tiny:recall", cycle=now, addr=victim.tag)
                b_line.coh = victim.coh
                b_line.stra = victim.stra
                self._mark_tracked(b_line, bank, now)
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
        entry = self.tiny.find_quiet(addr)
        bank = self.banks[addr % self.num_banks]
        if entry is None:
            _, spill = bank.lookup(addr, touch=False)
            if spill is None:
                # Tracked in the LLC line (or untracked): the in-LLC path.
                super().handle_private_eviction(core, addr, state, now)
                return
        if self.observer.enabled:
            self.observer.emit(
                "req:evict_notice", cycle=now, core=core, addr=addr, state=state.name
            )
        self._notice_traffic(state, partial=False)
        if entry is not None:
            entry.coh.remove(core)
            if entry.coh.is_idle:
                self.tiny.remove(addr)
        else:
            spill.coh.remove(core)
            if spill.coh.is_idle:
                bank.remove(spill)
        if state is MODIFIED:
            self._deposit_dirty(addr, bank, now)

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
        if line is not None:
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
