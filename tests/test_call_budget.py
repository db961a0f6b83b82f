"""Python calls per simulated access, held to a per-scheme budget.

Interpreter overhead is what the simulator's host time is made of, and
a Python call is its most expensive unit. The number of calls a run
makes is deterministic: it does not depend on the host or its load, so
unlike a timing it can gate every change. Each budget is the count
measured when it was set plus 3%; a change that adds per-access calls
to a scheme's path fails here, by name.
"""

import sys

import pytest

from repro.analysis.runner import RunScale
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, SystemConfig
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.workloads.generator import generate_streams

#: Python calls per access of barnes (8 cores, 4,000 steady accesses,
#: seed 1) under each scheme. Measured: sparse 14.95, in-LLC 9.50,
#: tiny 12.63, MgD 24.95, Stash 23.33 (Python 3.11).
BUDGETS = {
    "sparse": 15.4,
    "in_llc": 9.7,
    "tiny": 13.0,
    "mgd": 25.6,
    "stash": 24.0,
}

#: The schemes as the figures configure them.
SCHEMES = {
    "sparse": SparseSpec(ratio=2.0),
    "in_llc": InLLCSpec(tag_extended=False),
    "tiny": RunScale.quick().tiny_spec(1 / 256, "gnru", spill=True),
    "mgd": MgdSpec(ratio=1 / 8),
    "stash": StashSpec(ratio=1 / 32),
}


def calls_per_access(spec) -> float:
    config = SystemConfig(num_cores=8, l1_kb=8, l2_kb=32, scheme=spec)
    streams = generate_streams("barnes", config, 4_000, seed=1)
    system = System(config)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run_trace(system, streams)
    finally:
        sys.setprofile(previous)
    return calls / system.access_index


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_calls_per_access_within_budget(name):
    measured = calls_per_access(SCHEMES[name])
    assert measured <= BUDGETS[name], (
        f"{name}: {measured:.2f} Python calls per access, budget "
        f"{BUDGETS[name]}"
    )
