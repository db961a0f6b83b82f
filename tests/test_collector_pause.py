"""The cyclic collector pause around stream generation and trace runs.

``SyntheticTraceGenerator.generate`` and ``TraceEngine.run`` run under
``collector_paused()``. The pause is safe only while nothing they
allocate takes part in a reference cycle (rule 12 of
docs/performance.md): a cycle made under the pause would live until
the next collection. These tests hold that premise, with
``gc.collect()`` finding nothing after each run, and check that the
pause leaves the collector as it found it, also when a run raises.
On exit the pause moves what survived it into the oldest generation,
so no young collection scans it again.
"""

import gc
import weakref

import pytest

from repro.analysis.runner import RunScale
from repro.errors import ProtocolError, RunTimeoutError
from repro.resilience.auditor import ProtocolAuditor
from repro.sim import engine as engine_module
from repro.sim.deadline import collector_paused, deadline_scope
from repro.sim.engine import TraceEngine, run_trace
from repro.sim.system import System
from repro.telemetry import RingBufferSink, Tracer
from repro.types import READ
from repro.workloads import generator as generator_module
from repro.workloads.generator import SyntheticTraceGenerator
from repro.workloads.profiles import profile
from test_snapshots import SCHEMES


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts with the collector enabled and drained, and
    leaves it enabled whatever it did."""
    gc.enable()
    gc.collect()
    yield
    gc.enable()


def _config(name: str = "sparse"):
    return RunScale.quick().make_config(SCHEMES[name])


def _streams(total: int = 4000):
    return SyntheticTraceGenerator(profile("barnes"), _config(), seed=1).generate(total)


def test_runs_leave_no_cyclic_garbage():
    with collector_paused():
        streams = _streams()
        assert gc.collect() == 0, "generation"
        for name, spec in SCHEMES.items():
            run_trace(System(_config(name)), streams)
            assert gc.collect() == 0, name
        run_trace(System(_config("tiny")), streams, auditor=ProtocolAuditor())
        assert gc.collect() == 0, "audited run"
        tracer = Tracer(RingBufferSink())
        run_trace(System(_config("tiny")), streams, tracer=tracer)
        assert tracer.seq > 0
        del tracer
        assert gc.collect() == 0, "traced run"
    assert gc.isenabled()


def _record_collector(monkeypatch, module) -> list:
    """Record whether the collector is enabled at each deadline check
    ``module``'s loop makes."""
    seen = []
    check = module.check_deadline

    def recording_check():
        seen.append(gc.isenabled())
        check()

    monkeypatch.setattr(module, "check_deadline", recording_check)
    return seen


def test_generation_and_run_loops_run_paused(monkeypatch):
    generated = _record_collector(monkeypatch, generator_module)
    streams = _streams()
    ran = _record_collector(monkeypatch, engine_module)
    run_trace(System(_config()), streams)
    assert generated and not any(generated)
    assert ran and not any(ran)
    assert gc.isenabled()


def test_a_run_that_raises_reenables_the_collector():
    # A block in core 0's L1 but not in its L2 breaks inclusion, which
    # the engine's inlined private lookup reports.
    system = System(_config())
    system.cores[0].dl1[0x40 % system.config.l1_sets] = [0x40]
    with pytest.raises(ProtocolError, match="in L1 but not L2"):
        run_trace(system, [[(0x40, READ, 1)]])
    assert gc.isenabled()


def test_a_timed_out_run_reenables_the_collector():
    streams = _streams()
    engine = TraceEngine(System(_config()), streams)
    with pytest.raises(RunTimeoutError):
        with deadline_scope(1e-9):
            engine.run()
    assert 0 < engine.processed < sum(map(len, streams))
    assert gc.isenabled()


def test_a_timed_out_generation_reenables_the_collector():
    generator = SyntheticTraceGenerator(profile("barnes"), _config(), seed=1)
    with pytest.raises(RunTimeoutError):
        with deadline_scope(1e-9):
            generator.generate(4000)
    assert gc.isenabled()


def test_a_run_entered_with_the_collector_disabled_leaves_it_disabled():
    # As benchmarks/bench_micro_hotpath.py's _best_of times a run.
    streams = _streams()
    gc.disable()
    run_trace(System(_config()), streams)
    assert not gc.isenabled()
    SyntheticTraceGenerator(profile("barnes"), _config(), seed=1).generate(100)
    assert not gc.isenabled()


class _Node:
    """A collector-tracked object that can be weakly referenced."""


def test_what_a_pause_made_leaves_the_young_generations():
    with collector_paused():
        made = [_Node() for _ in range(2000)]
        streams = _streams()
    # No automatic collection may move the fresh object on.
    gc.disable()
    fresh = _Node()
    young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
    gc.enable()
    assert id(fresh) in young
    kept = [*made, streams, *streams, *streams[0]]
    assert all(gc.is_tracked(obj) for obj in kept)
    assert not any(id(obj) in young for obj in kept)


def test_a_cycle_made_under_a_pause_is_still_freed_by_a_collection():
    with collector_paused():
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
    assert ref() is not None
    gc.collect()
    assert ref() is None


def test_a_pause_keeps_a_disabled_collector_and_frozen_objects():
    gc.disable()
    with collector_paused():
        made = [_Node() for _ in range(10)]
    assert not gc.isenabled()
    young = {id(obj) for obj in gc.get_objects(0)}
    assert all(id(obj) in young for obj in made)
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with collector_paused():
            pass
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_scopes_nest():
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
