"""Generation-length estimation for the gNRU policy (paper §IV-A2).

The DSTRA+gNRU policy divides execution into *generations*. The length of
a generation is set to the average interval between two consecutive
reuses of a tiny-directory entry, estimated per slice:

* a ten-bit counter ``T`` ticks every 4K cycles (4M-cycle range),
* each entry records the ``T`` value of its last access (``Tlast``),
* on an entry access with ``Tlast < T``, the difference is added to an
  accumulator ``A`` and a counter ``B`` is incremented,
* the generation length is ``A / B`` ticks; ``A`` and ``B`` are halved
  when either saturates, and ``T`` wraps to zero on saturation.

A generation-length countdown decrements every tick; when it reaches
zero, the slice performs its generation-boundary work (EP promotion and
R gang-clear) and reloads the countdown from the current estimate.
"""

from __future__ import annotations

#: Cycles per tick of the ``T`` counter.
TICK_CYCLES = 4096

#: Wrap-around value of the ten-bit ``T`` counter.
T_MAX = 1024

#: Saturation limits for the A (accumulated gap) and B (sample count)
#: counters; both are halved together when either saturates.
A_MAX = 1 << 20
B_MAX = 1024


class GenerationEstimator:
    """Per-slice generation clock and reuse-interval estimator."""

    def __init__(self, default_generation_ticks: int = 16, adaptive: bool = True) -> None:
        if default_generation_ticks < 1:
            default_generation_ticks = 1
        #: Bootstrap generation length used before any reuse is observed.
        self.default_generation_ticks = default_generation_ticks
        #: When False the generation length stays fixed at the default
        #: (the fixed-generation ablation; the paper's design adapts).
        self.adaptive = adaptive
        self.t = 0
        self.acc = 0  # counter A
        self.samples = 0  # counter B
        #: Ticks of ``T`` already applied: ``now // TICK_CYCLES`` at the
        #: last :meth:`advance` that moved the clock.
        self.ticks_seen = 0
        self._gen_remaining = default_generation_ticks
        self.generations = 0

    def generation_length(self) -> int:
        """Current generation length estimate, in ticks (at least 1)."""
        if not self.adaptive or self.samples == 0:
            return self.default_generation_ticks
        return max(1, self.acc // self.samples)

    def advance(self, now: int) -> int:
        """Advance the tick clock to cycle ``now``.

        Returns the number of generation boundaries crossed since the last
        call (callers treat anything above 2 as 2 — a second boundary
        already promotes every untouched entry).
        """
        total_ticks = now // TICK_CYCLES
        elapsed = total_ticks - self.ticks_seen
        if elapsed <= 0:
            return 0
        self.ticks_seen = total_ticks
        self.t = (self.t + elapsed) % T_MAX
        boundaries = 0
        if elapsed >= self._gen_remaining:
            length = self.generation_length()
            overshoot = elapsed - self._gen_remaining
            boundaries = 1 + overshoot // length
            self._gen_remaining = length - overshoot % length
        else:
            self._gen_remaining -= elapsed
        self.generations += boundaries
        return boundaries

    def observe_access(self, tlast: int) -> int:
        """Record an entry access whose previous access stamped ``tlast``.

        Updates the reuse-interval estimate when ``tlast < T`` (the paper
        skips wrapped intervals) and returns the new stamp for the entry.
        """
        if tlast < self.t:
            self.acc += self.t - tlast
            self.samples += 1
            if self.acc >= A_MAX or self.samples >= B_MAX:
                self.acc //= 2
                self.samples //= 2
        return self.t
