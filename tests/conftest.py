"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.types import AccessKind

try:
    from hypothesis import HealthCheck, settings as hypothesis_settings

    # ``ci``: derandomized with a generous fixed deadline, so property
    # tests are reproducible across runners and never flake on shared
    # hardware. ``dev`` (the default): stock settings, fresh random
    # examples every run. Select with HYPOTHESIS_PROFILE=ci|dev.
    hypothesis_settings.register_profile(
        "ci",
        derandomize=True,
        deadline=2000,
        suppress_health_check=(HealthCheck.too_slow,),
    )
    hypothesis_settings.register_profile("dev")
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is optional locally
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--update-snapshots",
        action="store_true",
        default=False,
        help="rewrite golden statistics snapshots instead of asserting "
        "against them (see tests/test_snapshots.py)",
    )


@pytest.fixture
def update_snapshots(request):
    return request.config.getoption("--update-snapshots")


def tiny_config(scheme, num_cores: int = 4, **overrides) -> SystemConfig:
    """A minimal 4-core machine for protocol unit tests."""
    defaults = dict(num_cores=num_cores, l1_kb=1, l2_kb=4)
    defaults.update(overrides)
    return SystemConfig(scheme=scheme, **defaults)


def make_system(scheme, **overrides) -> System:
    """A :class:`System` over :func:`tiny_config`."""
    return System(tiny_config(scheme, **overrides))


class Driver:
    """Convenience wrapper to issue single accesses against a System."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.now = 0

    def read(self, core: int, addr: int) -> int:
        return self._go(core, addr, AccessKind.READ)

    def write(self, core: int, addr: int) -> int:
        return self._go(core, addr, AccessKind.WRITE)

    def ifetch(self, core: int, addr: int) -> int:
        return self._go(core, addr, AccessKind.IFETCH)

    def _go(self, core: int, addr: int, kind: AccessKind) -> int:
        latency = self.system.access(core, addr, kind, self.now)
        self.now += max(1, latency)
        return latency

    def state(self, core: int, addr: int):
        return self.system.cores[core].state_of(addr)

    def fuzz(self, steps: int, num_blocks: int = 160, seed: int = 7) -> None:
        """Random traffic with periodic invariant checks."""
        rng = random.Random(seed)
        kinds = [AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH]
        cores = self.system.config.num_cores
        for step in range(steps):
            self._go(rng.randrange(cores), rng.randrange(num_blocks), rng.choice(kinds))
            if step % 400 == 0:
                self.system.check_invariants()
        self.system.check_invariants()


@pytest.fixture
def driver_factory():
    """Factory fixture: build a Driver for a scheme spec."""

    def build(scheme, **overrides) -> Driver:
        return Driver(make_system(scheme, **overrides))

    return build
