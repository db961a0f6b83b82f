"""The dynamic selective spill policy (paper §IV-B2).

Each LLC bank independently decides which STRA categories may spill their
coherence tracking entries into the LLC. The bank maintains a *STRA spill
threshold category index* ``i``: blocks of category ``Cj`` with ``j >= i``
may spill. Sixteen sampled sets never admit spills and estimate the
bank's no-spill miss rate; at the end of each observation window of 8K
(non-writeback) accesses the bank compares the spilling sets' miss rate
``MR_spill`` against ``MR_no_spill + delta`` and moves ``i`` down (more
spilling) when the guarantee holds, up otherwise.

The tolerance ``delta`` adapts to the application phase observed in the
previous window (miss rate >= 10%? overall STRA ratio >= 0.4?):
``delta_A = 1/4`` (high MR, high STRA), ``delta_B = 1/32`` (high MR, low
STRA), ``delta_C = 1/16`` (low MR, high STRA), ``delta_D = 1/32``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stra import NUM_CATEGORIES


@dataclass(frozen=True)
class SpillConfig:
    """Tunables of the dynamic spill policy (paper defaults)."""

    window_accesses: int = 8192
    miss_rate_threshold: float = 0.10
    stra_ratio_threshold: float = 0.4
    delta_a: float = 1 / 4
    delta_b: float = 1 / 32
    delta_c: float = 1 / 16
    delta_d: float = 1 / 32
    #: Starting threshold index. The paper does not specify the reset
    #: value; starting mid-range lets the per-bank controller adapt in
    #: either direction within a few windows.
    initial_threshold: int = 4
    #: When False, ``delta`` stays fixed at ``delta_b`` regardless of the
    #: observed phase (the fixed-delta ablation).
    adaptive_delta: bool = True


class DynamicSpillPolicy:
    """Per-bank spill admission control."""

    __slots__ = (
        "config",
        "threshold_index",
        "delta",
        "_accesses",
        "_misses",
        "_shared_reads",
        "_sample_accesses",
        "_sample_misses",
        "_spill_accesses",
        "_spill_misses",
        "windows",
        "threshold_decreases",
        "threshold_increases",
    )

    def __init__(self, config: "SpillConfig | None" = None) -> None:
        self.config = config or SpillConfig()
        self.threshold_index = self.config.initial_threshold
        self.delta = self.config.delta_d
        # -- window counters ---------------------------------------------
        self._accesses = 0
        self._misses = 0
        self._shared_reads = 0
        self._sample_accesses = 0
        self._sample_misses = 0
        self._spill_accesses = 0
        self._spill_misses = 0
        # -- lifetime statistics ------------------------------------------
        self.windows = 0
        self.threshold_decreases = 0
        self.threshold_increases = 0

    def allows(self, category: int) -> bool:
        """True when a block of STRA ``category`` may spill right now."""
        return category >= self.threshold_index

    def record_access(
        self,
        in_sample_set: bool,
        is_miss: bool,
        is_shared_read: bool,
    ) -> None:
        """Account one non-writeback LLC access to this bank.

        :meth:`InLLCHome.handle_access` counts its accesses into the
        window counters in its own frame, the same way.
        """
        self._accesses += 1
        if is_miss:
            self._misses += 1
        if is_shared_read:
            self._shared_reads += 1
        if in_sample_set:
            self._sample_accesses += 1
            if is_miss:
                self._sample_misses += 1
        else:
            self._spill_accesses += 1
            if is_miss:
                self._spill_misses += 1
        if self._accesses >= self.config.window_accesses:
            self._end_window()

    def _end_window(self) -> None:
        config = self.config
        mr_no_spill = (
            self._sample_misses / self._sample_accesses
            if self._sample_accesses
            else 0.0
        )
        mr_spill = (
            self._spill_misses / self._spill_accesses
            if self._spill_accesses
            else 0.0
        )
        if mr_spill <= mr_no_spill + self.delta:
            if self.threshold_index > 0:
                self.threshold_index -= 1
                self.threshold_decreases += 1
        else:
            if self.threshold_index < NUM_CATEGORIES - 1:
                self.threshold_index += 1
                self.threshold_increases += 1
        # Classify the application phase for the next window's delta.
        bank_miss_rate = self._misses / self._accesses if self._accesses else 0.0
        stra_ratio = self._shared_reads / self._accesses if self._accesses else 0.0
        if config.adaptive_delta:
            high_mr = bank_miss_rate >= config.miss_rate_threshold
            high_stra = stra_ratio >= config.stra_ratio_threshold
            if high_mr and high_stra:
                self.delta = config.delta_a
            elif high_mr:
                self.delta = config.delta_b
            elif high_stra:
                self.delta = config.delta_c
            else:
                self.delta = config.delta_d
        else:
            self.delta = config.delta_b
        self.windows += 1
        self._accesses = 0
        self._misses = 0
        self._shared_reads = 0
        self._sample_accesses = 0
        self._sample_misses = 0
        self._spill_accesses = 0
        self._spill_misses = 0
