"""Python calls per simulated access, held to a per-scheme budget.

Interpreter overhead is what the simulator's host time is made of, and
a Python call is its most expensive unit. The number of calls a run
makes is deterministic: it does not depend on the host or its load, so
unlike a timing it can gate every change. Each budget is the count
measured when it was set plus 3%; a change that adds per-access calls
to a scheme's path fails here, by name. The counter is
tools/count_calls.py's, which also counts the benchmark's workloads.

Trace generation runs no Python code per access. It is held to two
budgets per generated access that per-trace work stays far below:
Python calls (``GENERATION_BUDGET``) and bytecodes
(``GENERATION_BYTECODE_BUDGET``), which also see a per-access loop
that makes no call. Saving and loading a capture make no Python call
per access (``CAPTURE_BUDGET``).
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import RunScale
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, SystemConfig
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.workloads.capture import load_capture, save_capture
from repro.workloads.generator import SyntheticTraceGenerator, generate_streams
from repro.workloads.profiles import profile
from repro.workloads.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
_TOOL = ROOT / "tools" / "count_calls.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_calls_tool = _load(_TOOL, "count_calls")
#: The hot-path microbenchmark's profile, imported, not copied.
MICRO_PRIVATE_HIT = _load(
    ROOT / "benchmarks" / "bench_micro_hotpath.py", "bench_micro_hotpath"
).MICRO_PRIVATE_HIT

#: Python calls per access of barnes and of TPC-C (8 cores, 4,000
#: steady accesses, seed 1) under each scheme. Measured (Python 3.11):
#: barnes sparse 6.97, in-LLC 4.30, tag-extended in-LLC 3.99, tiny 6.42,
#: tiny DSTRA 6.27, tiny DSTRA+gNRU 6.31, MgD 11.67, Stash 10.20; TPC-C
#: sparse 9.06, in-LLC 4.50, tag-extended in-LLC 4.34, tiny 6.10, tiny
#: DSTRA 6.08, tiny DSTRA+gNRU 6.13, MgD 12.43, Stash 9.68. TPC-C is the
#: run whose Stash broadcasts and MgD region evictions come from
#: shared-pool writes. ``tiny`` is fig13's +DynSpill column,
#: ``tiny_dstra`` and ``tiny_gnru`` its two columns without spilling.
#:
#: The micro_private_hit row is perfbench's ``private-hit`` workload:
#: quick scale, 300,000 steady accesses, seed 1, 99% of them L1 hits
#: the engine serves with no call. Measured (Python 3.11): 0.135. A
#: Python call per private hit would add about 0.97.
BUDGETS = {
    "barnes": {
        "sparse": 7.2,
        "in_llc": 4.4,
        "in_llc_tag": 4.1,
        "tiny": 6.6,
        "tiny_dstra": 6.5,
        "tiny_gnru": 6.5,
        "mgd": 12.0,
        "stash": 10.5,
    },
    "TPC-C": {
        "sparse": 9.3,
        "in_llc": 4.6,
        "in_llc_tag": 4.5,
        "tiny": 6.3,
        "tiny_dstra": 6.3,
        "tiny_gnru": 6.3,
        "mgd": 12.8,
        "stash": 10.0,
    },
    "micro_private_hit": {
        "sparse": 0.139,
    },
}

#: Python calls per generated access, initialization pass included (8
#: cores, 4,000 steady accesses, seed 1). Measured (Python 3.11, numpy
#: 2.4): barnes 0.018 (114 calls for 6,244 accesses), TPC-C 0.013;
#: building an object per access, as an earlier assembly did, read
#: 1.02 and 1.01. Every one of
#: those calls is made once per trace or once per ``CHECK_STRIDE``
#: accesses, and about half are numpy's Python-level wrappers (``prod``,
#: ``cumsum``, ``argsort``, ...), whose number follows numpy's version,
#: not this program. So this budget is not the count plus 3%: it fails
#: any Python call per access, or per 20 accesses, and lets the
#: per-trace count drift by about 200 calls.
GENERATION_BUDGET = 0.05

#: Bytecodes per generated access, on the same traces. Measured (Python
#: 3.11, numpy 2.4): barnes 0.52, TPC-C 0.38. A loop that appends one
#: access at a time runs at least seven bytecodes per access even when
#: it makes no call (tests/reference_generator.py's runs 38.3 and 32.6
#: at 0.14 and 0.12 calls), so the budget fails it and lets the
#: per-trace bytecodes, which follow the interpreter's instruction set
#: and numpy's wrappers, grow about fourfold.
GENERATION_BYTECODE_BUDGET = 2.0

#: Python calls per encoded or decoded access of each corpus capture in
#: tests/corpus/ (8 or 16 frames, one per core, of 3,288-4,128
#: accesses). Measured (Python 3.11): saving 0.027-0.039 and loading
#: 0.017-0.030, every call made once per file or once per frame;
#: encoding record by record read 4.02 per access and decoding an object
#: per access 4.04, both on multisocket.rtrace. The budget fails any
#: Python call per access, or per ten.
CAPTURE_BUDGET = 0.1

#: The schemes as the figures configure them.
SCHEMES = {
    "sparse": SparseSpec(ratio=2.0),
    "in_llc": InLLCSpec(tag_extended=False),
    "in_llc_tag": InLLCSpec(tag_extended=True),
    "tiny": RunScale.quick().tiny_spec(1 / 256, "gnru", spill=True),
    "tiny_dstra": RunScale.quick().tiny_spec(1 / 256, "dstra"),
    "tiny_gnru": RunScale.quick().tiny_spec(1 / 256, "gnru"),
    "mgd": MgdSpec(ratio=1 / 8),
    "stash": StashSpec(ratio=1 / 32),
}


def calls_per_access(app: str, spec) -> float:
    if app == "micro_private_hit":
        config = RunScale.quick().make_config(spec)
        streams = generate_streams(MICRO_PRIVATE_HIT, config, 300_000, seed=1)
    else:
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


def test_private_hit_calls_per_access_within_budget():
    _check("micro_private_hit", "sparse")


def _generation_per_access(app: str, counter) -> float:
    config = SystemConfig(num_cores=8, l1_kb=8, l2_kb=32, scheme=SparseSpec(ratio=2.0))
    generator = SyntheticTraceGenerator(profile(app), config, seed=1)
    streams = []
    count = counter(lambda: streams.extend(generator.generate(4_000)))
    return count / sum(len(stream) for stream in streams)


@pytest.mark.parametrize("app", ["TPC-C", "barnes"])
def test_generation_calls_per_access_within_budget(app):
    measured = _generation_per_access(app, count_calls_tool.count_calls)
    assert measured <= GENERATION_BUDGET, (
        f"{app}: {measured:.3f} Python calls per generated access, "
        f"budget {GENERATION_BUDGET}"
    )


@pytest.mark.parametrize("app", ["TPC-C", "barnes"])
def test_generation_bytecodes_per_access_within_budget(app):
    measured = _generation_per_access(app, count_calls_tool.count_bytecodes)
    assert measured <= GENERATION_BYTECODE_BUDGET, (
        f"{app}: {measured:.2f} bytecodes per generated access, "
        f"budget {GENERATION_BYTECODE_BUDGET}"
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_capture_decoding_calls_per_access_within_budget(name):
    path = ROOT / "tests" / "corpus" / f"{name}.rtrace"
    loaded = []
    calls = count_calls_tool.count_calls(lambda: loaded.append(load_capture(path)))
    measured = calls / sum(len(stream) for stream in loaded[0][0])
    assert measured <= CAPTURE_BUDGET, (
        f"{name}: {measured:.3f} Python calls per decoded access, "
        f"budget {CAPTURE_BUDGET}"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_capture_encoding_calls_per_access_within_budget(name, tmp_path):
    streams, header = load_capture(ROOT / "tests" / "corpus" / f"{name}.rtrace")
    calls = count_calls_tool.count_calls(lambda: save_capture(
        tmp_path / f"{name}.rtrace", streams, profile=header["profile"],
        seed=header["seed"], total_accesses=header["total_accesses"],
        geometry=header["geometry"], meta=header["meta"],
    ))
    measured = calls / sum(len(stream) for stream in streams)
    assert measured <= CAPTURE_BUDGET, (
        f"{name}: {measured:.3f} Python calls per encoded access, "
        f"budget {CAPTURE_BUDGET}"
    )


def test_tool_runs_from_a_plain_checkout(tmp_path):
    # Neither PYTHONPATH nor an installed package: the tool finds src/.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(_TOOL), "--generate", "--workload", "private-hit"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "micro_private_hit" in result.stdout
