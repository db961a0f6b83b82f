"""Tests for the multi-socket (§VI future work) extension."""

import random

import pytest

from repro.analysis.runner import RunScale
from repro.errors import ConfigError
from repro.multisocket.experiment import intersocket_directory_study
from repro.multisocket.system import (
    INTER_SOCKET_HOP_CYCLES,
    MultiSocketConfig,
    build_multisocket_system,
)
from repro.sim.config import SparseSpec, TinySpec
from repro.types import AccessKind
from repro.verify import (
    AccessStep,
    CoverageMap,
    FaultStep,
    R,
    VerifyHarness,
    W,
    run_schedule,
)


class TestConfiguration:
    def test_lowering_to_system_config(self):
        config = MultiSocketConfig(num_sockets=4, socket_cache_kb=128)
        system_config = config.to_system_config()
        assert system_config.num_cores == 4
        assert system_config.l2_kb == 128
        assert system_config.hop_cycles == INTER_SOCKET_HOP_CYCLES

    def test_home_capacity_ratio_preserved(self):
        system_config = MultiSocketConfig(num_sockets=4).to_system_config()
        assert system_config.llc_blocks == 2 * system_config.aggregate_private_blocks

    def test_odd_socket_count_rejected(self):
        with pytest.raises(ConfigError):
            MultiSocketConfig(num_sockets=3)

    def test_single_socket_rejected(self):
        with pytest.raises(ConfigError):
            MultiSocketConfig(num_sockets=1)


class TestBehaviour:
    def _drive(self, scheme, steps=800):
        config = MultiSocketConfig(num_sockets=4, socket_cache_kb=16, scheme=scheme)
        system = build_multisocket_system(config)
        import random

        rng = random.Random(5)
        kinds = [AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH]
        now = 0
        for _ in range(steps):
            core, addr = rng.randrange(4), rng.randrange(300)
            now += system.access(core, addr, rng.choice(kinds), now)
        system.check_invariants()
        return system

    def test_sparse_socket_directory_runs(self):
        system = self._drive(SparseSpec(ratio=2.0))
        assert system.stats.llc_transactions > 0

    def test_tiny_socket_directory_runs(self):
        system = self._drive(
            TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32)
        )
        assert system.stats.llc_transactions > 0

    def test_intersocket_hops_cost_more(self):
        """A socket-forwarded read pays inter-socket link latency."""
        config = MultiSocketConfig(num_sockets=4, socket_cache_kb=16)
        system = build_multisocket_system(config)
        system.access(0, 0x40, AccessKind.READ, 0)
        forwarded = system.access(1, 0x40, AccessKind.READ, 100)
        assert forwarded >= INTER_SOCKET_HOP_CYCLES


class TestConformance:
    """The repro.verify harness applied to multi-socket systems.

    ``build_multisocket_system`` lowers to a plain :class:`System`
    (sockets become cores), so the oracle, auditor, and coverage
    instrumentation all apply unchanged; these tests pin that the
    conformance guarantees hold across the inter-socket link too.
    """

    def _system(self, scheme, num_sockets=4, cache_kb=16):
        config = MultiSocketConfig(
            num_sockets=num_sockets, socket_cache_kb=cache_kb, scheme=scheme
        )
        return build_multisocket_system(config)

    def _random_steps(self, steps, sockets=4, blocks=300, write_frac=0.3, seed=11):
        rng = random.Random(seed)
        out = []
        for _ in range(steps):
            ctor = W if rng.random() < write_frac else R
            out.append(ctor(rng.randrange(sockets), rng.randrange(blocks)))
        return out

    def test_clean_sharing_schedule(self):
        """Classic migratory sharing across all four sockets runs clean
        under the oracle and per-step auditing."""
        steps = []
        for addr in (0x10, 0x11, 0x12):
            for socket in range(4):
                steps += [W(socket, addr), R((socket + 1) % 4, addr)]
        system = self._system(SparseSpec(ratio=2.0))
        result = run_schedule(steps, system=system, audit_interval=1)
        assert result.violation is None
        assert result.executed == len(steps)

    def test_oracle_validates_cross_socket_handoff(self):
        """A value written on one socket must be the value every other
        socket reads; 400 random steps of shared traffic stay clean."""
        steps = self._random_steps(400, blocks=40, write_frac=0.4)
        system = self._system(SparseSpec(ratio=2.0))
        result = run_schedule(steps, system=system, audit_interval=16)
        assert result.violation is None

    def test_dropped_copy_detected_on_sparse(self):
        steps = [W(0, 5), FaultStep("drop_private_copy", 5, 0), R(1, 5), R(0, 5)]
        system = self._system(SparseSpec(ratio=2.0))
        result = run_schedule(steps, system=system, audit_interval=1)
        assert result.failed
        assert result.injected

    def test_dropped_copy_detected_on_tiny(self):
        steps = [W(2, 9), FaultStep("drop_private_copy", 9, 2), R(1, 9), R(2, 9)]
        system = self._system(
            TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32)
        )
        result = run_schedule(steps, system=system, audit_interval=1)
        assert result.failed

    def _tiny_spill_run(self, coverage=None):
        """A hot bank-0 pool drives STRA spill admission across sockets."""
        system = self._system(
            TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32)
        )
        banks = system.config.num_banks
        rng = random.Random(7)
        pool = [banks * k for k in range(1, 81)]
        steps = []
        for _ in range(4000):
            ctor = W if rng.random() < 0.08 else R
            steps.append(ctor(rng.randrange(4), rng.choice(pool)))
        result = run_schedule(
            steps, system=system, audit_interval=16, coverage=coverage
        )
        return system, result

    def test_tiny_spill_crosses_sockets(self):
        """Spilled tracking entries serve sharers on other sockets, and
        the audited run stays violation-free throughout."""
        system, result = self._tiny_spill_run()
        assert result.violation is None
        assert system.stats.spills > 0
        assert system.stats.spill_saved > 0

    def test_coverage_collected_on_multisocket(self):
        coverage = CoverageMap()
        _, result = self._tiny_spill_run(coverage=coverage)
        assert result.violation is None
        covered = coverage.covered()
        assert "tiny:spill" in covered
        assert "tiny:spill_hit" in covered
        assert any(label.startswith("mesi:") for label in covered)

    def test_back_invalidation_crosses_sockets(self):
        """An undersized socket directory evicts live entries, forcing
        back-invalidations of copies held on other sockets — still clean
        under full monitoring."""
        system = self._system(SparseSpec(ratio=0.125))
        steps = self._random_steps(3000, blocks=400, write_frac=0.2, seed=3)
        result = run_schedule(steps, system=system, audit_interval=16)
        assert result.violation is None
        assert system.stats.back_invalidations > 0

    def test_harnessed_multisocket_matches_bare(self):
        """Full monitoring must not perturb a multi-socket machine:
        stats stay bit-identical to an unmonitored run."""
        steps = self._random_steps(300, blocks=60, write_frac=0.3, seed=9)
        spec = TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32)

        bare = self._system(spec)
        now = 0
        for step in steps:
            now += max(
                1, bare.access(step.core, step.addr, step.access_kind(), now)
            )

        monitored = self._system(spec)
        harness = VerifyHarness(
            monitored, audit_interval=1, coverage=CoverageMap()
        )
        for step in steps:
            harness.run_step(step)
        assert monitored.stats.dump() == bare.stats.dump()
        assert harness.now == now
    def test_study_structure_and_ordering(self):
        scale = RunScale(num_cores=8, total_accesses=4_000, spill_window=48)
        figure = intersocket_directory_study(
            scale, apps=["barnes", "compress"], num_sockets=8
        )
        assert figure.rows == ["barnes", "compress", "Average"]
        assert len(figure.columns) == 4
        # The paper's §VI claim, quantified: an equal-sized tiny
        # directory beats the undersized sparse directory.
        tiny = figure.average("tiny 1/32x")
        sparse = figure.average("sparse 1/32x")
        assert tiny < sparse
