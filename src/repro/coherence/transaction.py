"""Outcome record of one LLC transaction.

A home controller's ``handle_access`` returns ``(latency, fill_state)``
and counts the transaction's flags (hop count, LLC miss, lengthened
access, spill benefit) straight into :class:`~repro.sim.stats.SimStats`
where it decides them, so serving a transaction allocates no record.
:class:`AccessOutcome` is the same information as one object, and
:meth:`SimStats.on_outcome` folds one into the counters; nothing on the
simulation path builds or consumes one.
"""

from __future__ import annotations

from repro.types import PrivateState


class AccessOutcome:
    """What happened while serving one request at the home LLC bank."""

    __slots__ = (
        "latency",
        "hops",
        "llc_data_hit",
        "dram_access",
        "lengthened",
        "spill_saved",
        "fill_state",
        "is_upgrade",
    )

    def __init__(self) -> None:
        #: Total cycles spent beyond the private hierarchy lookups.
        self.latency = 0
        #: Transactions in the critical path: 2 (requester-home-requester)
        #: or 3 (requester-home-target-requester).
        self.hops = 2
        #: True when the LLC supplied (or already held) the data block.
        self.llc_data_hit = True
        #: True when DRAM had to be accessed.
        self.dram_access = False
        #: True for a 3-hop access that a 2x sparse directory would have
        #: served in 2 hops (a read to a shared corrupted block).
        self.lengthened = False
        #: True when a spilled tracking entry avoided a lengthened access.
        self.spill_saved = False
        #: MESI state granted to the requester (None for upgrades).
        self.fill_state: "PrivateState | None" = None
        #: True when the request was an S->M upgrade (no data transfer).
        self.is_upgrade = False
