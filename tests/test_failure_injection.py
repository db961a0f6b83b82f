"""Failure-injection tests: corrupted internal state must be detected.

The invariant checkers exist to catch simulator bugs; these tests verify
they actually fire when the state is deliberately broken — using the
declarative :class:`~repro.resilience.faults.FaultPlan` machinery rather
than ad-hoc state poking — and that the protocol error paths raise
instead of silently mis-tracking.
"""

import pytest

from conftest import Driver, make_system, tiny_config
from repro.coherence.info import CohInfo
from repro.errors import (
    FaultInjectionError,
    InvariantViolation,
    ProtocolError,
    TraceError,
)
from repro.resilience import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    ProtocolAuditor,
)
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.types import Access, AccessKind, PrivateState
from repro.verify.harness import run_schedule
from repro.verify.steps import FaultStep, R, W
from repro.workloads.generator import generate_streams
from repro.workloads.profiles import profile


def faulted_driver(scheme, *faults, seed: int = 0, **overrides) -> Driver:
    """A Driver over a System with a FaultInjector attached."""
    injector = FaultInjector(FaultPlan(faults=tuple(faults), seed=seed))
    system = System(tiny_config(scheme, **overrides), fault_injector=injector)
    return Driver(system)


class TestInvariantCheckersFire:
    def test_stale_directory_entry_detected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=0),
        )
        d.read(0, 0x40)  # fault fires after this access completes
        with pytest.raises(ProtocolError):
            d.system.check_invariants()
        assert d.state(0, 0x40) is PrivateState.INVALID

    def test_untracked_private_block_detected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.CORRUPT_DIRECTORY_ENTRY, after_access=1,
                  addr=0x40),
        )
        d.read(0, 0x40)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_phantom_sharer_detected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.FLIP_SHARER_BIT, after_access=1,
                  addr=0x40, core=3),
        )
        d.read(0, 0x40)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_lost_eviction_notice_detected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.LOSE_EVICTION_NOTICE, after_access=1),
        )
        d.read(0, 0x40)
        # Exceed private-cache capacity until a notice is swallowed.
        for block in range(0x100, 0x400):
            d.read(0, block)
            if d.system.fault_injector.injected:
                break
        assert d.system.fault_injector.injected
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_double_writer_detected(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        d.write(0, 0x40)
        # Corrupt: force a second exclusive copy (no FaultKind models a
        # spontaneous fill, so this one pokes the private cache directly).
        d.system.cores[1].fill(0x40, AccessKind.WRITE, PrivateState.MODIFIED)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_inllc_stale_tracking_detected(self):
        d = faulted_driver(
            InLLCSpec(),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=0),
        )
        d.read(0, 0x40)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_tiny_stale_entry_detected(self):
        d = faulted_driver(
            TinySpec(ratio=1 / 16, policy="dstra"),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=0),
        )
        d.ifetch(0, 0x40)  # allocates a tiny entry
        with pytest.raises(ProtocolError):
            d.system.check_invariants()

    def test_corrupt_tiny_entry_detected(self):
        d = faulted_driver(
            TinySpec(ratio=1 / 16, policy="dstra"),
            Fault(kind=FaultKind.CORRUPT_TINY_ENTRY, after_access=1,
                  addr=0x40),
        )
        d.ifetch(0, 0x40)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()


class TestInjectorMechanics:
    def test_fault_applies_at_declared_access(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=3,
                  addr=0x40, core=0),
        )
        d.read(0, 0x40)
        d.read(0, 0x80)
        assert not d.system.fault_injector.injected
        d.read(0, 0xC0)
        [fault] = d.system.fault_injector.injected
        assert fault.kind is FaultKind.DROP_PRIVATE_COPY
        assert fault.addr == 0x40
        assert fault.access_index == 3

    def test_seeded_target_resolution_is_deterministic(self):
        def run():
            d = faulted_driver(
                SparseSpec(ratio=2.0),
                Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=4),
                seed=11,
            )
            for i in range(4):
                d.read(i, 0x40 * (i + 1))
            [fault] = d.system.fault_injector.injected
            return (fault.addr, fault.core)

        assert run() == run()

    def test_drop_on_non_holder_rejected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=2),
        )
        with pytest.raises(FaultInjectionError):
            d.read(0, 0x40)  # core 2 does not hold 0x40

    def test_corrupt_tiny_entry_needs_tiny_scheme(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.CORRUPT_TINY_ENTRY, after_access=1),
        )
        with pytest.raises(FaultInjectionError):
            d.read(0, 0x40)

    @pytest.mark.parametrize("spec", [
        SparseSpec(ratio=2.0),
        InLLCSpec(),
        TinySpec(ratio=1 / 16, policy="dstra"),
        MgdSpec(ratio=1 / 4),
        StashSpec(ratio=1 / 4),
    ], ids=lambda s: type(s).__name__)
    def test_drop_private_copy_detected_under_every_scheme(self, spec):
        d = faulted_driver(
            spec,
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=0),
        )
        d.read(0, 0x40)
        with pytest.raises(ProtocolError):
            d.system.check_invariants()


class TestProtocolErrorPaths:
    def test_access_from_unknown_core_rejected(self):
        d = Driver(make_system(SparseSpec(ratio=2.0)))
        with pytest.raises(TraceError):
            d.system.access(Access(99, 0x40, AccessKind.READ), 0)

    def test_forward_to_vanished_owner_detected(self):
        d = faulted_driver(
            SparseSpec(ratio=2.0),
            Fault(kind=FaultKind.DROP_PRIVATE_COPY, after_access=1,
                  addr=0x40, core=0),
        )
        d.write(0, 0x40)  # owner silently loses its copy afterwards
        with pytest.raises(ProtocolError):
            d.write(1, 0x40)

    def test_inllc_upgrade_for_untracked_block_detected(self):
        d = Driver(make_system(InLLCSpec()))
        with pytest.raises(ProtocolError):
            d.system.home.handle_access(
                0, 0x40, AccessKind.WRITE, 0, upgrade=True
            )

    def test_cohinfo_owner_plus_sharers_rejected(self):
        with pytest.raises(ProtocolError):
            CohInfo(owner=0, sharers=0b10)


class TestRecoveryAfterHeavyChurn:
    """Long adversarial patterns must leave the system consistent."""

    def test_write_storm_single_block(self):
        d = Driver(make_system(SparseSpec(ratio=1 / 16)))
        for i in range(400):
            d.write(i % 4, 0x40)
        d.system.check_invariants()
        assert d.state(3, 0x40) is PrivateState.MODIFIED

    def test_reader_writer_pingpong(self):
        d = Driver(make_system(InLLCSpec()))
        for i in range(300):
            d.read(0, 0x40)
            d.read(1, 0x40)
            d.write(2, 0x40)
        d.system.check_invariants()

    def test_tiny_directory_thrash(self):
        d = Driver(make_system(TinySpec(ratio=1 / 64, policy="gnru", spill=True,
                                        spill_window=32)))
        # Far more hot shared blocks than tiny entries, with writes mixed
        # in so entries keep migrating between structures.
        for round_ in range(150):
            block = 0x40 * (round_ % 40)
            d.ifetch(round_ % 4, block)
            if round_ % 7 == 0:
                d.write((round_ + 1) % 4, block)
        d.system.check_invariants()


class TestAuditedRunsFail:
    """An audited run that trips an invariant raises: nothing repairs the
    corrupted state and lets the run finish as if it were clean."""

    AUDIT_INTERVAL = 250
    INJECT_AT = 1000  # audit-window boundary: corruption is seen at once

    @pytest.mark.parametrize("spec", [
        pytest.param(SparseSpec(ratio=2.0), id="sparse"),
        pytest.param(InLLCSpec(), id="inllc"),
        pytest.param(TinySpec(ratio=1 / 32, policy="gnru", spill=True,
                              spill_window=64), id="tiny"),
        pytest.param(MgdSpec(ratio=1 / 8), id="mgd"),
        pytest.param(StashSpec(ratio=1 / 32), id="stash"),
    ])
    def test_abort_mode_still_raises(self, spec):
        config = SystemConfig(num_cores=8, l1_kb=1, l2_kb=4, scheme=spec)
        streams = generate_streams(profile("barnes"), config, 6000, seed=3)
        plan = FaultPlan(
            faults=(Fault(kind=FaultKind.CORRUPT_DIRECTORY_ENTRY,
                          after_access=self.INJECT_AT),),
            seed=7,
        )
        system = System(config, fault_injector=FaultInjector(plan))
        with pytest.raises(InvariantViolation):
            run_trace(
                system, streams,
                auditor=ProtocolAuditor(interval=self.AUDIT_INTERVAL),
            )

    def test_schedule_without_recovery_still_fails(self):
        steps = []
        for round_ in range(3):
            steps.append(W(0, 0x40))
            steps.extend(R(core, 0x40) for core in range(1, 4))
        steps.append(FaultStep("corrupt_directory_entry", addr=0x40))
        steps.extend(R(core, 0x40) for core in range(4))
        result = run_schedule(
            steps, spec=SparseSpec(ratio=2.0), audit_interval=4
        )
        assert result.failed
