"""System assembly: cores, LLC, interconnect, DRAM, and the selected
coherence-tracking scheme wired into one simulated machine."""

from __future__ import annotations

from repro.cache.private_cache import PrivateCore
from repro.coherence.inllc_home import InLLCHome, TinyHome
from repro.coherence.sparse_home import (
    MgdHome,
    SharedOnlyHome,
    SparseHome,
    StashHome,
)
from repro.core.spill import SpillConfig
from repro.core.tiny_directory import AllocationPolicy, TinyDirectory
from repro.directory.mgd import MultiGrainDirectory
from repro.directory.sparse import SparseDirectory
from repro.directory.zcache import ZCacheDirectory
from repro.errors import ConfigError, TraceError
from repro.interconnect.mesh import Mesh2D
from repro.memory.dram import DramModel
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.stats import SimStats
from repro.types import Access


class System:
    """One simulated chip-multiprocessor.

    The public surface is small: construct with a
    :class:`~repro.sim.config.SystemConfig`, feed
    :class:`~repro.types.Access` records through :meth:`access` (or use
    :func:`repro.sim.engine.run_trace`), then :meth:`finalize` and read
    :attr:`stats`.
    """

    def __init__(self, config: SystemConfig, fault_injector=None) -> None:
        self.config = config
        self.mesh = Mesh2D(
            config.num_cores,
            hop_cycles=config.hop_cycles,
            num_memory_controllers=config.dram_channels,
        )
        self.dram = DramModel(config.dram_channels, config.dram_banks_per_channel)
        self.cores = [
            PrivateCore(
                core,
                config.l1_sets,
                config.l1_assoc,
                config.l2_sets,
                config.l2_assoc,
            )
            for core in range(config.num_cores)
        ]
        self.stats = SimStats()
        self.home = self._build_home(config.scheme)
        self._finalized = False
        #: Completed-access counter (drives fault injection and auditing).
        self.access_index = 0
        #: Optional :class:`~repro.resilience.faults.FaultInjector`.
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach(self)

    # ------------------------------------------------------------------
    # Scheme wiring
    # ------------------------------------------------------------------

    def _build_home(self, spec):
        config = self.config
        args = (config, self.mesh, self.dram, self.cores, self.stats)
        if isinstance(spec, SparseSpec):
            entries = config.directory_entries(spec.ratio)
            if spec.zcache:
                directory = ZCacheDirectory(entries, config.num_banks)
            else:
                directory = SparseDirectory(entries, config.num_banks, spec.assoc)
            home_cls = SharedOnlyHome if spec.shared_only else SparseHome
            return home_cls(*args, directory)
        if isinstance(spec, InLLCSpec):
            return InLLCHome(*args, tag_extended=spec.tag_extended)
        if isinstance(spec, TinySpec):
            tiny = TinyDirectory(
                config.directory_entries(spec.ratio),
                config.num_banks,
                AllocationPolicy(spec.policy),
                assoc=spec.assoc,
                default_generation_ticks=spec.gnru_default_generation,
                gnru_adaptive=spec.gnru_adaptive,
            )
            return TinyHome(
                *args,
                tiny,
                spill_enabled=spec.spill,
                spill_config=SpillConfig(
                    window_accesses=spec.spill_window,
                    adaptive_delta=spec.spill_adaptive_delta,
                ),
                stra_limit=(1 << spec.stra_counter_bits) - 1,
            )
        if isinstance(spec, MgdSpec):
            directory = MultiGrainDirectory(
                config.directory_entries(spec.ratio), config.num_banks, spec.assoc
            )
            return MgdHome(*args, directory)
        if isinstance(spec, StashSpec):
            directory = SparseDirectory(
                config.directory_entries(spec.ratio), config.num_banks, spec.assoc
            )
            return StashHome(*args, directory)
        raise ConfigError(f"unknown scheme spec {spec!r}")

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(self, acc: Access, now: int) -> int:
        """Process one access at cycle ``now``; returns its latency."""
        latency = self._access(acc, now)
        self.access_index += 1
        if self.fault_injector is not None:
            self.fault_injector.on_access(self)
        return latency

    def _access(self, acc: Access, now: int) -> int:
        config = self.config
        if not 0 <= acc.core < config.num_cores:
            raise TraceError(f"access from core {acc.core} outside the system")
        self.stats.on_access(acc.kind)
        core = self.cores[acc.core]
        probe = core.probe(acc.addr, acc.kind)
        if probe.is_hit:
            if probe.level == "l1":
                self.stats.l1_hits += 1
                return config.l1_latency
            self.stats.l2_hits += 1
            return config.l1_latency + config.l2_latency
        upgrade = probe.needs_upgrade
        latency, fill_state = self.home.handle_access(
            acc.core, acc.addr, acc.kind, now, upgrade
        )
        if upgrade:
            core.complete_upgrade(acc.addr)
            return config.l1_latency + latency
        victim = core.fill(acc.addr, acc.kind, fill_state)
        if victim is not None:
            victim_addr, victim_state = victim
            injector = self.fault_injector
            if injector is None or not injector.intercept_eviction(
                acc.core, victim_addr
            ):
                self.home.handle_private_eviction(
                    acc.core, victim_addr, victim_state, now
                )
        return config.l1_latency + config.l2_latency + latency

    # ------------------------------------------------------------------
    # Wrap-up
    # ------------------------------------------------------------------

    def finalize(self) -> SimStats:
        """Flush residency statistics and harvest structure counters."""
        if self._finalized:
            return self.stats
        self._finalized = True
        self.home.finalize()
        structures = self.stats.structures
        structures["llc_tag_lookups"] = sum(
            bank.tag_lookups for bank in self.home.banks
        )
        structures["llc_data_writes"] = sum(
            bank.data_writes + bank.fills for bank in self.home.banks
        )
        structures["llc_fills"] = sum(bank.fills for bank in self.home.banks)
        directory = getattr(self.home, "directory", None)
        if directory is not None:
            structures["dir_lookups"] = directory.hits + directory.misses
            structures["dir_hits"] = directory.hits
            structures["dir_allocations"] = directory.allocations
            structures["dir_evictions"] = directory.evictions
        tiny = getattr(self.home, "tiny", None)
        if tiny is not None:
            structures["tiny_lookups"] = tiny.hits + tiny.misses
            structures["tiny_hits"] = tiny.hits
            structures["tiny_allocations"] = tiny.allocations
            structures["tiny_evictions"] = tiny.evictions
            structures["tiny_declined"] = tiny.declined
        return self.stats

    def check_invariants(self) -> None:
        """Verify protocol invariants (used by tests)."""
        self.home.check_invariants()
