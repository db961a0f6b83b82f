"""Python calls per simulated access, held to a per-scheme budget.

Interpreter overhead is what the simulator's host time is made of, and
a Python call is its most expensive unit. The number of calls a run
makes is deterministic: it does not depend on the host or its load, so
unlike a timing it can gate every change. Each budget is the count
measured when it was set plus 3%; a change that adds per-access calls
to a scheme's path fails here, by name. The counter is
tools/count_calls.py's, which also counts the benchmark's workloads.

Trace generation makes about one call per access (the ``Access``
constructor) however it assembles its streams, so it is held to a
budget of bytecodes per generated access instead, with a wider margin
(see ``GENERATION_BUDGET``).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.runner import RunScale
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, SystemConfig
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.workloads.generator import SyntheticTraceGenerator, generate_streams
from repro.workloads.profiles import profile

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_calls.py"
_spec = importlib.util.spec_from_file_location("count_calls", _TOOL)
count_calls_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_calls_tool)

#: Python calls per access of barnes and of TPC-C (8 cores, 4,000
#: steady accesses, seed 1) under each scheme. Measured (Python 3.11):
#: barnes sparse 7.76, in-LLC 6.95, tiny 10.06, MgD 12.53, Stash 11.09;
#: TPC-C sparse 9.93, in-LLC 7.71, tiny 10.80, MgD 13.37, Stash 10.58.
#: TPC-C is the run whose Stash broadcasts and MgD region evictions
#: come from shared-pool writes.
BUDGETS = {
    "barnes": {
        "sparse": 8.0,
        "in_llc": 7.2,
        "tiny": 10.4,
        "mgd": 12.9,
        "stash": 11.4,
    },
    "TPC-C": {
        "sparse": 10.2,
        "in_llc": 7.9,
        "tiny": 11.1,
        "mgd": 13.8,
        "stash": 10.9,
    },
}

#: Bytecodes per generated access, initialization pass included (8
#: cores, 4,000 steady accesses, seed 1). Measured (Python 3.11): barnes
#: 14.58, TPC-C 14.42; appending one access at a time read 55.34 and
#: 49.55. This budget is not the count plus 3%. A call count depends
#: on the program, but a bytecode count also follows the interpreter's
#: instruction set, which changes from one Python version to the next,
#: and the suite also runs on 3.10 and 3.12, where the count was not
#: measured. So the budget is set to fail a return to per-access
#: assembly (more than three times the count) and lets smaller drift,
#: up to about 5 bytecodes per access, pass.
GENERATION_BUDGET = 20.0

#: The schemes as the figures configure them.
SCHEMES = {
    "sparse": SparseSpec(ratio=2.0),
    "in_llc": InLLCSpec(tag_extended=False),
    "tiny": RunScale.quick().tiny_spec(1 / 256, "gnru", spill=True),
    "mgd": MgdSpec(ratio=1 / 8),
    "stash": StashSpec(ratio=1 / 32),
}


def calls_per_access(app: str, spec) -> float:
    config = SystemConfig(num_cores=8, l1_kb=8, l2_kb=32, scheme=spec)
    streams = generate_streams(app, config, 4_000, seed=1)
    system = System(config)
    calls = count_calls_tool.count_calls(lambda: run_trace(system, streams))
    return calls / system.access_index


def _check(app: str, name: str) -> None:
    measured = calls_per_access(app, SCHEMES[name])
    budget = BUDGETS[app][name]
    assert measured <= budget, (
        f"{app}/{name}: {measured:.2f} Python calls per access, budget {budget}"
    )


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_calls_per_access_within_budget(name):
    _check("barnes", name)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_tpcc_calls_per_access_within_budget(name):
    _check("TPC-C", name)


@pytest.mark.parametrize("app", sorted(BUDGETS))
def test_generation_bytecodes_per_access_within_budget(app):
    config = SystemConfig(num_cores=8, l1_kb=8, l2_kb=32, scheme=SparseSpec(ratio=2.0))
    generator = SyntheticTraceGenerator(profile(app), config, seed=1)
    streams = []
    bytecodes = count_calls_tool.count_bytecodes(
        lambda: streams.extend(generator.generate(4_000))
    )
    measured = bytecodes / sum(len(stream) for stream in streams)
    assert measured <= GENERATION_BUDGET, (
        f"{app}: {measured:.2f} bytecodes per generated access, "
        f"budget {GENERATION_BUDGET}"
    )


def test_counter_counts_python_calls_and_bytecodes():
    def leaf():
        return 1

    def branch():
        return leaf() + leaf()

    # The lambda, branch and two leaves; builtins are not Python calls.
    assert count_calls_tool.count_calls(lambda: len([branch()])) == 4
    count_bytecodes = count_calls_tool.count_bytecodes
    assert count_bytecodes(branch) > count_bytecodes(leaf) > 0
