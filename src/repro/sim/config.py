"""System configuration: Table I of the paper, plus scheme selection.

:class:`SystemConfig` encodes the simulated machine. The paper's machine
(:meth:`SystemConfig.paper`) has 128 cores; the default constructor is a
proportionally scaled 32-core machine that preserves every capacity
*ratio* (private/LLC/directory) so the pressure on each structure — and
hence the shape of every figure — carries over while runs stay fast.

The coherence-tracking scheme is selected by a spec dataclass:

* :class:`SparseSpec` — baseline sparse directory at some size ratio,
  optionally tracking shared blocks only (the Fig. 3 idealized design)
  and optionally skew-associative (Z-cache).
* :class:`InLLCSpec` — the Section III in-LLC tracking design, either the
  data-bits-borrowed variant or the storage-heavy tag-extended variant.
* :class:`TinySpec` — the tiny directory (Section IV) with the DSTRA or
  DSTRA+gNRU allocation policy and optional dynamic spilling.
* :class:`MgdSpec` / :class:`StashSpec` — the related proposals of
  Fig. 22.

Directory size ratios are relative to ``N``, the aggregate block capacity
of the private L2 caches, following the paper's convention: a ``1/16x``
directory tracks at most ``N/16`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.types import BLOCK_SIZE


@dataclass(frozen=True)
class SparseSpec:
    """Baseline sparse directory configuration."""

    ratio: float = 2.0
    assoc: int = 8
    #: Track only shared blocks; private/exclusive blocks are tracked in
    #: an idealized unbounded structure (the Fig. 3 experiment).
    shared_only: bool = False
    #: Use a four-way skew-associative Z-cache organization.
    zcache: bool = False

    name: str = field(default="sparse", init=False, repr=False)


@dataclass(frozen=True)
class InLLCSpec:
    """In-LLC coherence tracking (Section III)."""

    #: True for the storage-heavy variant that extends every LLC tag
    #: (left bars of Fig. 4); False borrows data-block bits instead.
    tag_extended: bool = False

    name: str = field(default="in_llc", init=False, repr=False)


@dataclass(frozen=True)
class TinySpec:
    """Tiny directory configuration (Section IV)."""

    ratio: float = 1 / 32
    #: "dstra" or "gnru" (DSTRA + generational NRU).
    policy: str = "gnru"
    #: Enable dynamic selective spilling into the LLC.
    spill: bool = False
    assoc: int = 8
    #: Spill-policy observation window, in per-bank LLC accesses.
    spill_window: int = 8192
    #: Generation bootstrap length for gNRU, in 4K-cycle ticks.
    gnru_default_generation: int = 16
    #: Ablation: adapt the gNRU generation length to the observed entry
    #: reuse interval (the paper's design) or keep it fixed.
    gnru_adaptive: bool = True
    #: Ablation: adapt the spill tolerance delta to the application phase
    #: (the paper's classes A-D) or keep it fixed at delta_B.
    spill_adaptive_delta: bool = True
    #: STRA counter width in bits (the paper uses six-bit counters).
    stra_counter_bits: int = 6

    name: str = field(default="tiny", init=False, repr=False)

    def __post_init__(self) -> None:
        if self.policy not in ("dstra", "gnru"):
            raise ConfigError(f"unknown tiny-directory policy {self.policy!r}")
        if self.stra_counter_bits < 2:
            # A 0- or 1-bit counter halves on its first count, so it never
            # leaves zero and every block would read C0.
            raise ConfigError(
                f"stra_counter_bits must be at least 2, got "
                f"{self.stra_counter_bits}"
            )


@dataclass(frozen=True)
class MgdSpec:
    """Multi-grain directory configuration (Fig. 22)."""

    ratio: float = 1 / 8
    assoc: int = 8

    name: str = field(default="mgd", init=False, repr=False)


@dataclass(frozen=True)
class StashSpec:
    """Stash directory configuration (Fig. 22)."""

    ratio: float = 1 / 32
    assoc: int = 8

    name: str = field(default="stash", init=False, repr=False)


#: Any scheme spec accepted by :class:`SystemConfig`.
SchemeSpec = object


@dataclass
class SystemConfig:
    """Full simulated-machine configuration (Table I, scaled by default)."""

    num_cores: int = 32
    # -- private hierarchy (per core) ----------------------------------
    l1_kb: int = 32
    l1_assoc: int = 8
    l1_latency: int = 2
    l2_kb: int = 128
    l2_assoc: int = 8
    l2_latency: int = 3
    # -- shared LLC ----------------------------------------------------
    llc_assoc: int = 16
    #: LLC block capacity as a multiple of the aggregate private L2
    #: capacity (Table I: 32 MB LLC vs 16 MB aggregate L2 -> 2.0).
    llc_capacity_factor: float = 2.0
    llc_tag_latency: int = 4
    llc_data_latency: int = 2
    #: Extra cycle for decoding extended state from a corrupted block.
    corrupted_decode_latency: int = 1
    # -- interconnect and memory ----------------------------------------
    hop_cycles: int = 6
    dram_channels: int = 8
    dram_banks_per_channel: int = 8
    # -- coherence scheme ------------------------------------------------
    scheme: SchemeSpec = field(default_factory=SparseSpec)

    def __post_init__(self) -> None:
        if self.num_cores < 2:
            raise ConfigError("the simulator needs at least two cores")
        if self.num_cores & (self.num_cores - 1):
            raise ConfigError("num_cores must be a power of two")
        if self.llc_capacity_factor <= 0:
            raise ConfigError("llc_capacity_factor must be positive")
        if self.directory_entries(getattr(self.scheme, "ratio", 1.0)) < self.num_banks:
            raise ConfigError(
                "directory too small: fewer than one entry per bank"
            )

    # -- derived geometry ------------------------------------------------

    @property
    def l1_sets(self) -> int:
        """Sets per L1 cache."""
        return self.l1_kb * 1024 // BLOCK_SIZE // self.l1_assoc

    @property
    def l2_sets(self) -> int:
        """Sets per private L2 cache."""
        return self.l2_kb * 1024 // BLOCK_SIZE // self.l2_assoc

    @property
    def l2_blocks(self) -> int:
        """Block capacity of one private L2."""
        return self.l2_kb * 1024 // BLOCK_SIZE

    @property
    def aggregate_private_blocks(self) -> int:
        """``N``: total private L2 block capacity, the directory-sizing base."""
        return self.num_cores * self.l2_blocks

    @property
    def llc_blocks(self) -> int:
        """Total LLC block capacity."""
        return int(self.aggregate_private_blocks * self.llc_capacity_factor)

    @property
    def num_banks(self) -> int:
        """LLC banks (one per tile, Table I)."""
        return self.num_cores

    @property
    def llc_sets_per_bank(self) -> int:
        """Sets in each LLC bank."""
        return max(1, self.llc_blocks // self.num_banks // self.llc_assoc)

    def directory_entries(self, ratio: float) -> int:
        """Entries in a ``ratio x`` directory (at least one per bank)."""
        return max(self.num_banks, int(self.aggregate_private_blocks * ratio))

    # -- presets ----------------------------------------------------------

    @classmethod
    def paper(cls, scheme: SchemeSpec = None) -> "SystemConfig":
        """The paper's full 128-core configuration (Table I)."""
        return cls(num_cores=128, scheme=scheme or SparseSpec())

    @classmethod
    def scaled(cls, num_cores: int = 32, scheme: SchemeSpec = None) -> "SystemConfig":
        """A proportionally scaled machine with paper-identical ratios."""
        return cls(num_cores=num_cores, scheme=scheme or SparseSpec())

    @classmethod
    def halved_hierarchy(cls, num_cores: int = 32, scheme: SchemeSpec = None) -> "SystemConfig":
        """The Section V-A robustness configuration: every cache level
        halved in sets (capacity ratios maintained, 16 MB LLC at paper
        scale)."""
        return cls(
            num_cores=num_cores,
            l1_kb=16,
            l2_kb=64,
            scheme=scheme or SparseSpec(),
        )
