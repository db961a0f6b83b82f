"""Simulation statistics.

Collects every quantity the paper's figures report: execution cycles,
hop counts, lengthened (3-hop shared read) accesses with their code/data
split, interconnect traffic by message class, LLC miss rate, per-residency
sharer histograms (Fig. 2), STRA-ratio distributions over blocks and
accesses (Figs. 8/9), tiny-directory hit/allocation counts (Figs. 16-18),
and spill benefit (Fig. 19).
"""

from __future__ import annotations

from repro.core.stra import NUM_CATEGORIES, stra_category
from repro.interconnect.traffic import TrafficMeter
from repro.types import AccessKind


class SimStats:
    """Mutable statistics bag for one simulation run."""

    def __init__(self) -> None:
        self.traffic = TrafficMeter()
        #: Execution time: the maximum core clock at end of trace.
        self.cycles = 0
        # -- access counts ------------------------------------------------
        self.accesses = 0
        self.reads = 0
        self.writes = 0
        self.ifetches = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.upgrades = 0
        # -- LLC / home transactions ---------------------------------------
        self.llc_transactions = 0
        self.llc_misses = 0
        self.two_hop = 0
        self.three_hop = 0
        self.lengthened = 0
        self.lengthened_code = 0
        self.lengthened_data = 0
        self.spill_saved = 0
        self.spills = 0
        # -- coherence actions ----------------------------------------------
        self.invalidations = 0
        self.back_invalidations = 0
        self.broadcasts = 0
        # -- per-residency statistics (flushed on LLC eviction/finalize) ----
        self.blocks_allocated = 0
        #: Simultaneous-sharer bins: [0-1], [2-4], [5-8], [9-16], [17+].
        self.sharer_bins = [0] * 5
        self.blocks_lengthened = 0
        self.stra_block_categories = [0] * NUM_CATEGORIES
        self.stra_access_categories = [0] * NUM_CATEGORIES
        #: Structure-level counters harvested at finalize (energy model,
        #: directory hit/allocation figures).
        self.structures: "dict[str, float]" = {}
        #: Recovery section, published by the RecoveryManager after the
        #: run when at least one repair happened; empty (and excluded
        #: from dumps) otherwise, so clean runs stay bit-identical.
        self.recovery: "dict[str, int]" = {}
        #: Telemetry section, published by a MetricsRegistry snapshot
        #: after the run when metrics collection was on; empty (and
        #: excluded from dumps) otherwise — same bit-identity contract
        #: as the recovery section.
        self.telemetry: "dict[str, object]" = {}

    def reset(self) -> None:
        """Zero every counter in place (end of warmup).

        The :class:`TrafficMeter` object is cleared rather than replaced
        because home controllers hold a direct reference to it.
        Per-residency counts already accumulated on live LLC lines are
        intentionally kept: a block's sharing history spans the warmup
        boundary, just as it does in the paper's measurements.
        """
        traffic = self.traffic
        self.__init__()
        traffic.clear()
        self.traffic = traffic

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    def on_access(self, kind: AccessKind) -> None:
        """Count one issued access."""
        self.accesses += 1
        if kind is AccessKind.READ:
            self.reads += 1
        elif kind is AccessKind.WRITE:
            self.writes += 1
        else:
            self.ifetches += 1

    def on_outcome(self, kind: AccessKind, out) -> None:
        """Account one home (LLC) transaction from an
        :class:`~repro.coherence.transaction.AccessOutcome`.

        The home controllers count the same flags in place as they serve
        a transaction and never call this; it defines the counting rules
        they follow (one hop class per transaction, the lengthened
        code/data split by access kind).
        """
        self.llc_transactions += 1
        if out.is_upgrade:
            self.upgrades += 1
        if out.dram_access:
            self.llc_misses += 1
        if out.hops >= 3:
            self.three_hop += 1
        else:
            self.two_hop += 1
        if out.lengthened:
            self.lengthened += 1
            if kind is AccessKind.IFETCH:
                self.lengthened_code += 1
            else:
                self.lengthened_data += 1
        if out.spill_saved:
            self.spill_saved += 1

    def flush_residency(self, line) -> None:
        """Fold one LLC residency's statistics into the histograms."""
        self.blocks_allocated += 1
        sharers = line.distinct_sharers()
        if sharers <= 1:
            self.sharer_bins[0] += 1
        elif sharers <= 4:
            self.sharer_bins[1] += 1
        elif sharers <= 8:
            self.sharer_bins[2] += 1
        elif sharers <= 16:
            self.sharer_bins[3] += 1
        else:
            self.sharer_bins[4] += 1
        if line.fwd_reads > 0:
            self.blocks_lengthened += 1
            ratio = line.fwd_reads / line.total_reads if line.total_reads else 1.0
            category = stra_category(ratio)
            self.stra_block_categories[category] += 1
            self.stra_access_categories[category] += line.fwd_reads

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def llc_miss_rate(self) -> float:
        """LLC miss rate over home transactions."""
        if self.llc_transactions == 0:
            return 0.0
        return self.llc_misses / self.llc_transactions

    @property
    def lengthened_fraction(self) -> float:
        """Fraction of LLC accesses with a lengthened critical path."""
        if self.llc_transactions == 0:
            return 0.0
        return self.lengthened / self.llc_transactions

    @property
    def spill_saved_fraction(self) -> float:
        """Fraction of LLC accesses saved from lengthening by spills."""
        if self.llc_transactions == 0:
            return 0.0
        return self.spill_saved / self.llc_transactions

    @property
    def shared_block_fraction(self) -> float:
        """Fraction of allocated LLC blocks that saw 2+ sharers."""
        if self.blocks_allocated == 0:
            return 0.0
        return sum(self.sharer_bins[1:]) / self.blocks_allocated

    @property
    def lengthened_block_fraction(self) -> float:
        """Fraction of allocated LLC blocks with lengthened accesses."""
        if self.blocks_allocated == 0:
            return 0.0
        return self.blocks_lengthened / self.blocks_allocated

    #: Scalar counter attribute names, used by serialization.
    _SCALARS = (
        "cycles",
        "accesses",
        "reads",
        "writes",
        "ifetches",
        "l1_hits",
        "l2_hits",
        "upgrades",
        "llc_transactions",
        "llc_misses",
        "two_hop",
        "three_hop",
        "lengthened",
        "lengthened_code",
        "lengthened_data",
        "spill_saved",
        "spills",
        "invalidations",
        "back_invalidations",
        "broadcasts",
        "blocks_allocated",
        "blocks_lengthened",
    )

    def as_dict(self) -> "dict[str, object]":
        """A plain-dict snapshot (reports and derived metrics)."""
        snapshot = {name: getattr(self, name) for name in self._SCALARS}
        snapshot.update(
            llc_miss_rate=self.llc_miss_rate,
            lengthened_fraction=self.lengthened_fraction,
            traffic=self.traffic.as_dict(),
            sharer_bins=list(self.sharer_bins),
            structures=dict(self.structures),
        )
        if self.recovery:
            snapshot["recovery"] = dict(self.recovery)
        if self.telemetry:
            snapshot["telemetry"] = dict(self.telemetry)
        return snapshot

    def dump(self) -> "dict[str, object]":
        """A lossless serializable snapshot (see :meth:`load`)."""
        payload = {
            "scalars": {name: getattr(self, name) for name in self._SCALARS},
            "sharer_bins": list(self.sharer_bins),
            "stra_block_categories": list(self.stra_block_categories),
            "stra_access_categories": list(self.stra_access_categories),
            "structures": dict(self.structures),
            "traffic": self.traffic.dump(),
        }
        if self.recovery:
            payload["recovery"] = dict(self.recovery)
        if self.telemetry:
            payload["telemetry"] = dict(self.telemetry)
        return payload

    @classmethod
    def load(cls, payload: "dict[str, object]") -> "SimStats":
        """Rebuild a stats object from :meth:`dump` output."""
        stats = cls()
        for name, value in payload["scalars"].items():
            setattr(stats, name, value)
        stats.sharer_bins = list(payload["sharer_bins"])
        stats.stra_block_categories = list(payload["stra_block_categories"])
        stats.stra_access_categories = list(payload["stra_access_categories"])
        stats.structures = dict(payload["structures"])
        stats.recovery = dict(payload.get("recovery") or {})
        stats.telemetry = dict(payload.get("telemetry") or {})
        stats.traffic = TrafficMeter.load(payload["traffic"])
        return stats
