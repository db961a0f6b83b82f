"""Common machinery for home LLC-bank controllers.

A *home controller* implements the home-node side of the MESI protocol
for one coherence-tracking scheme. The :class:`System` routes every
private-cache miss, upgrade, and eviction notice to the controller, which
manipulates the LLC banks, the tracking structures, and the private
caches of remote cores, while accounting latency and traffic.

The simulation is functionally synchronous: a transaction completes
before the next one starts, so the transient/busy states of the real
protocol (and their NACK/retry traffic) are not modelled. The paper
reports that effect as a ~1% processor-traffic increase; everything else
the figures measure — hop counts, invalidations, miss rates, message
volumes — is captured.
"""

from __future__ import annotations

from repro.cache.llc import LLCBank, LLCLine
from repro.cache.private_cache import PrivateCore
from repro.coherence.info import CohInfo
from repro.errors import InvariantViolation, RecoveryError
from repro.interconnect.mesh import Mesh2D
from repro.interconnect.traffic import COHERENCE, TrafficMeter
from repro.memory.dram import DramModel
from repro.core.stra import stra_category
from repro.sim.config import SystemConfig
from repro.telemetry import NULL_TRACER
from repro.types import (
    INVALID,
    LLC_CLEAN,
    LLC_DIRTY,
    LLC_SPILLED_ENTRY,
    MODIFIED,
    AccessKind,
    PrivateState,
)


class BaseHome:
    """Shared state and helpers for all home controllers."""

    __slots__ = (
        "config",
        "mesh",
        "dram",
        "cores",
        "stats",
        "traffic",
        "observer",
        "num_banks",
        "banks",
        "_hit_latency_data",
        "_hit_latency_tag",
        "_tiles",
        "_latency",
        "_distance",
        "_memory_latency",
    )

    def __init__(
        self,
        config: SystemConfig,
        mesh: Mesh2D,
        dram: DramModel,
        cores: "list[PrivateCore]",
        stats,
    ) -> None:
        self.config = config
        self.mesh = mesh
        self.dram = dram
        self.cores = cores
        self.stats = stats
        self.traffic: TrafficMeter = stats.traffic
        #: Where protocol transitions are announced: the shared disabled
        #: tracer unless attach_observer installs a tracer, coverage map
        #: or flight recorder (see repro.telemetry.sinks).
        self.observer = NULL_TRACER
        self.num_banks = config.num_banks
        # Precomputed LLC hit latencies; these feed every _two_hop /
        # _three_hop call on the transaction critical path.
        self._hit_latency_tag = config.llc_tag_latency
        self._hit_latency_data = config.llc_tag_latency + config.llc_data_latency
        # The mesh's read-only tables: the latency and the hop count from
        # tile ``src`` to ``dst`` sit at ``src * self._tiles + dst``.
        self._tiles = mesh.num_tiles
        self._latency = mesh.latency_table
        self._distance = mesh.distance_table
        self._memory_latency = mesh.memory_latency_table
        self.banks = [
            LLCBank(
                config.llc_sets_per_bank,
                config.llc_assoc,
                bank_stride=self.num_banks,
                bank_index=index,
            )
            for index in range(self.num_banks)
        ]

    # ------------------------------------------------------------------
    # Geometry and latency helpers
    # ------------------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Home bank (== home tile) of block ``addr``.

        The per-transaction paths inline this as ``addr % self.num_banks``.
        """
        return addr % self.num_banks

    def _two_hop(self, core: int, home: int, with_data: bool = True) -> int:
        """Requester -> home -> requester latency, including LLC lookup."""
        return 2 * self._latency[core * self._tiles + home] + (
            self._hit_latency_data if with_data else self._hit_latency_tag
        )

    def _three_hop(
        self, core: int, home: int, target: int, llc_extra: int = 0
    ) -> int:
        """Requester -> home -> target -> requester latency.

        ``llc_extra`` adds serialization beyond the tag lookup (e.g. the
        data read + decode of a corrupted block, Section IV-C).
        """
        latency = self._latency
        tiles = self._tiles
        return (
            latency[core * tiles + home]
            + self._hit_latency_tag
            + llc_extra
            + latency[home * tiles + target]
            + self.config.l2_latency
            + latency[target * tiles + core]
        )

    def _invalidation_latency(self, home: int, holders: "list[int]", requester: int) -> int:
        """Slowest home -> holder -> requester invalidation/ack path (0
        without holders)."""
        latency = self._latency
        tiles = self._tiles
        home_row = home * tiles
        slowest = 0
        for holder in holders:
            path = latency[home_row + holder] + latency[holder * tiles + requester]
            if path > slowest:
                slowest = path
        return slowest

    def _closest_sharer(self, coh: CohInfo, home: int) -> int:
        """Elect the sharer nearest to the home tile to forward data (the
        lowest core id among equally near ones)."""
        distance = self._distance
        home_row = home * self._tiles
        sharers = coh.sharer_list()
        closest = sharers[0]
        nearest = distance[home_row + closest]
        for core in sharers:
            hops = distance[home_row + core]
            if hops < nearest:
                closest = core
                nearest = hops
        return closest

    # ------------------------------------------------------------------
    # DRAM
    # ------------------------------------------------------------------

    def _dram_fetch(self, addr: int, now: int) -> int:
        """Fetch a block from memory (an LLC miss); returns the added
        latency."""
        self.stats.llc_misses += 1
        return 2 * self._memory_latency[addr % self.num_banks] + self.dram.access(
            addr, now, False
        )

    def _dram_write(self, addr: int, now: int) -> None:
        """Write a block back to memory (off the critical path)."""
        self.dram.access(addr, now, is_write=True)

    # ------------------------------------------------------------------
    # Private-cache manipulation
    # ------------------------------------------------------------------

    def _invalidate_holders(
        self,
        addr: int,
        coh: CohInfo,
        now: int,
        except_core: "int | None" = None,
        data_to_requester: bool = False,
    ) -> bool:
        """Invalidate every private copy recorded in ``coh``.

        Returns True when a dirty (M) copy was found; the modified data
        is forwarded to the requester when ``data_to_requester``,
        otherwise written into the home LLC line (or memory when the line
        is absent). Traffic: one invalidation and one acknowledgement per
        holder, the ack carrying data for an M holder.
        """
        had_dirty = False
        for holder in coh.holders():
            if holder == except_core:
                continue
            prior = self.cores[holder].invalidate(addr)
            if prior is INVALID:
                # A recorded holder without a copy: the tracking entry is
                # stale (lost notice, dropped copy, phantom sharer). Flag
                # it at the access that trips over it instead of silently
                # cleansing the record.
                raise InvariantViolation(
                    f"invalidation sent to core {holder} for block "
                    f"{addr:#x} it does not hold (stale tracking entry)",
                    addr=addr,
                    cores=(holder,),
                )
            if self.observer.enabled:
                self.observer.emit(
                    f"inval:{prior.value}->I", cycle=now, core=holder, addr=addr
                )
            self.traffic.control(COHERENCE)  # invalidation
            if prior is MODIFIED:
                had_dirty = True
                self.traffic.data(COHERENCE)  # ack + data
                if not data_to_requester:
                    self._store_dirty_data(addr, now)
            else:
                self.traffic.control(COHERENCE)  # ack
            self.stats.invalidations += 1
        coh.clear()
        return had_dirty

    def _store_dirty_data(self, addr: int, now: int) -> None:
        """Deposit retrieved dirty data in the LLC line or in memory."""
        bank = self.banks[addr % self.num_banks]
        line, _ = bank.lookup(addr, touch=False)
        if line is not None and line.state in (LLC_CLEAN, LLC_DIRTY):
            line.state = LLC_DIRTY
            bank.data_writes += 1
        elif line is not None:
            # Corrupted line: the data portion is updated in place; the
            # borrowed bits stay authoritative for tracking.
            line.underlying_dirty = True
            bank.data_writes += 1
        else:
            self._dram_write(addr, now)

    # ------------------------------------------------------------------
    # Residency bookkeeping
    # ------------------------------------------------------------------

    def _flush_residency(self, line: LLCLine) -> None:
        if line.state is not LLC_SPILLED_ENTRY:
            if self.observer.enabled and line.fwd_reads > 0:
                ratio = (
                    line.fwd_reads / line.total_reads
                    if line.total_reads
                    else 1.0
                )
                self.observer.emit(
                    "stra:classify",
                    addr=line.tag,
                    category=stra_category(ratio),
                    fwd_reads=line.fwd_reads,
                )
            self.stats.flush_residency(line)

    def finalize(self) -> None:
        """Flush residency statistics of still-resident LLC lines."""
        for bank in self.banks:
            for line in bank.iter_lines():
                self._flush_residency(line)

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------

    def probe_truth(self, addr: int) -> CohInfo:
        """Reconstruct the ground-truth tracking record for ``addr``.

        Quiet-probes every private hierarchy (no replacement state is
        touched, no statistics are charged — the RecoveryManager charges
        the probe's traffic and latency to the recovery section) and
        rebuilds the sharer vector / exclusive owner exactly as scrubbing
        hardware would. Raises :class:`~repro.errors.RecoveryError` when
        the caches themselves are contradictory (two exclusive copies, or
        an exclusive copy coexisting with sharers) — that state cannot be
        expressed in a tracking record and is not repairable.
        """
        truth = CohInfo()
        exclusive: "list[int]" = []
        for core in self.cores:
            state = core.state_of(addr)
            if state is INVALID:
                continue
            if state.is_exclusive:
                exclusive.append(core.core_id)
            else:
                truth.sharers |= 1 << core.core_id
        if exclusive:
            if len(exclusive) > 1 or truth.sharers:
                raise RecoveryError(
                    f"private caches disagree on block {addr:#x}: exclusive "
                    f"in cores {exclusive} alongside sharer mask "
                    f"{truth.sharers:#x}"
                )
            truth.owner = exclusive[0]
        return truth

    def rebuild_tracking(self, addr: int, truth: CohInfo, now: int = 0) -> str:
        """Overwrite the tracking state for ``addr`` with ``truth``.

        Scheme controllers implement this as the repair half of the
        detect->diagnose->repair cycle: whatever structure (directory
        entry, tiny entry, spilled entry, corrupted LLC line, region
        entry) currently claims ``addr`` is rewritten in place or
        reinstalled so it matches the probed ground truth. Returns a
        short label describing the action taken, for the repair log.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Interface implemented by scheme controllers
    # ------------------------------------------------------------------

    def handle_access(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        now: int,
        upgrade: bool = False,
    ) -> "tuple[int, PrivateState | None]":
        """Serve a private miss (or S->M upgrade) for ``core``.

        Returns ``(latency, fill_state)``: the cycles spent beyond the
        private hierarchy lookups, and the MESI state granted to the
        requester (None for an upgrade). The transaction's outcome is
        counted into :attr:`stats` where it is decided: one
        ``llc_transactions``, exactly one of ``two_hop``/``three_hop``,
        and ``upgrades``, ``llc_misses``, ``lengthened`` (with its
        code/data split) and ``spill_saved`` when they apply.
        """
        raise NotImplementedError

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        """Process an eviction notice from ``core``'s private hierarchy."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Verify tracker/private-cache agreement (tests only)."""
        raise NotImplementedError
