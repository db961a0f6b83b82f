"""Shared Three-hop Read Access (STRA) ratio estimation (paper §IV-A).

The STRA ratio of a block is the fraction of its LLC read accesses that
would need forwarding to a sharer under in-LLC tracking (i.e. reads that
find the block in the shared state). It is estimated with two six-bit
saturating counters per tracked block:

* **STRAC** — incremented on LLC reads that find the block shared,
* **OAC** — incremented on every other LLC access to the block except
  writebacks.

Both counters are halved whenever either saturates, giving an exponential
moving estimate. The ratio ``STRAC / (STRAC + OAC)`` maps to categories
C0..C7: C0 is a zero ratio, Ci for i in [1, 6] covers
``(1 - 1/2^(i-1), 1 - 1/2^i]``, and C7 covers ``(1 - 1/64, 1]``.
"""

from __future__ import annotations

#: Saturation value of the six-bit STRAC/OAC counters.
STRA_COUNTER_MAX = 63

#: Number of STRA categories (C0 through C7).
NUM_CATEGORIES = 8

# Upper bounds of categories C1..C6; precomputed for the hot path.
_CATEGORY_BOUNDS = tuple(1.0 - 1.0 / (1 << i) for i in range(1, 7))


def stra_category(ratio: float) -> int:
    """Map a STRA ratio in [0, 1] to its category index 0..7."""
    if ratio <= 0.0:
        return 0
    for index, bound in enumerate(_CATEGORY_BOUNDS):
        if ratio <= bound:
            return index + 1
    return 7


class StraCounters:
    """The per-block STRAC/OAC counter pair.

    These twelve bits live with the block's tracking information: borrowed
    from the LLC data block while the block is in a corrupted state, or
    stored in the (extended) tiny-directory entry while tracked there
    (paper §IV-A). The record is transferred verbatim between the two.

    ``limit`` is the saturation value; the paper's counters are six bits
    wide (limit 63). Narrower/wider counters are an ablation knob.
    """

    __slots__ = ("strac", "oac", "limit")

    def __init__(self, strac: int = 0, oac: int = 0, limit: int = STRA_COUNTER_MAX) -> None:
        self.strac = strac
        self.oac = oac
        self.limit = limit

    def record_shared_read(self) -> None:
        """Count an LLC read that found the block in the shared state."""
        self.strac += 1
        if self.strac >= self.limit:
            self._halve()

    def record_other(self) -> None:
        """Count any other (non-writeback) LLC access to the block."""
        self.oac += 1
        if self.oac >= self.limit:
            self._halve()

    def _halve(self) -> None:
        self.strac //= 2
        self.oac //= 2

    def reset(self) -> None:
        """Clear both counters (block returned to the unowned state)."""
        self.strac = 0
        self.oac = 0

    def ratio(self) -> float:
        """The current STRA ratio estimate."""
        total = self.strac + self.oac
        if total == 0:
            return 0.0
        return self.strac / total

    def category(self) -> int:
        """The current STRA category index (0..7), in integers.

        Equals ``stra_category(self.ratio())``: with ``t = strac + oac``,
        ``strac / t <= 1 - 2**-i`` holds exactly when ``t <= oac << i``,
        so the category is the least such ``i``, capped at 7.
        """
        strac = self.strac
        if strac == 0:
            return 0
        oac = self.oac
        if oac == 0:
            return 7
        return min(7, ((strac + oac - 1) // oac).bit_length())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StraCounters(strac={self.strac}, oac={self.oac})"
