"""The stream format: per-core lists of exact ``(addr, kind, gap)`` tuples.

The engine reads an access with one tuple unpack, which the interpreter
specializes for an exact ``tuple``: a tuple subclass or an object would
miss that path, or fail. So every producer of streams (generation, the
scenario corpus, capture decoding) must hand the engine a list per core
whose elements are exact tuples of ``(int, AccessKind, int)``.
"""

from pathlib import Path

import pytest

from repro.analysis.runner import RunScale
from repro.sim.config import SparseSpec
from repro.types import AccessKind
from repro.workloads.capture import load_capture
from repro.workloads.generator import SyntheticTraceGenerator, generate_streams
from repro.workloads.profiles import profile
from repro.workloads.scenarios import SCENARIOS, scenario_streams

CORPUS_DIR = Path(__file__).parent / "corpus"


def assert_exact_format(streams) -> None:
    """``streams`` is a list of lists of exact ``(int, AccessKind, int)``
    tuples."""
    assert type(streams) is list
    for stream in streams:
        assert type(stream) is list
        for access in stream:
            assert type(access) is tuple, access
            addr, kind, gap = access
            assert (type(addr), type(kind), type(gap)) == (int, AccessKind, int), access


def test_generate_streams_are_exact_tuples():
    config = RunScale.quick().make_config(SparseSpec())
    streams = SyntheticTraceGenerator(profile("TPC-C"), config, seed=1).generate(3000)
    assert sum(map(len, streams)) > 3000
    assert_exact_format(streams)
    assert_exact_format(generate_streams("barnes", config, 1000, seed=2))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_streams_are_exact_tuples(name):
    assert_exact_format(scenario_streams(SCENARIOS[name]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_loaded_captures_are_exact_tuples(name):
    streams, _header = load_capture(CORPUS_DIR / f"{name}.rtrace")
    assert sum(map(len, streams)) > 0
    assert_exact_format(streams)
