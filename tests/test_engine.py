"""Unit tests for the trace engine and stats plumbing."""

import pytest

from repro.errors import OracleViolation
from repro.resilience import ProtocolAuditor
from repro.sim.config import SparseSpec, SystemConfig, TinySpec
from repro.sim.engine import TraceEngine, run_trace
from repro.sim.system import System
from repro.types import AccessKind
from repro.verify import ValueOracle
from repro.verify.differential import truncate_streams
from repro.workloads.generator import generate_streams


def small_system() -> System:
    return System(SystemConfig(num_cores=4, l1_kb=1, l2_kb=4, scheme=SparseSpec(ratio=2.0)))


def reads(addrs, gap=5):
    return [(addr, AccessKind.READ, gap) for addr in addrs]


class TestEngineBasics:
    def test_runs_all_accesses(self):
        system = small_system()
        streams = [reads(range(10)), reads(range(100, 110))]
        stats = run_trace(system, streams, warmup_fraction=0.0)
        assert stats.accesses == 20

    def test_execution_time_is_max_core_clock(self):
        system = small_system()
        streams = [reads(range(50)), reads([100])]
        stats = run_trace(system, streams, warmup_fraction=0.0)
        assert stats.cycles > 50 * 5  # at least the busy core's gaps

    def test_too_many_streams_rejected(self):
        system = small_system()
        with pytest.raises(ValueError):
            TraceEngine(system, [[] for _ in range(5)])

    def test_invalid_warmup_rejected(self):
        system = small_system()
        with pytest.raises(ValueError):
            TraceEngine(system, [[]], warmup_fraction=1.0)

    def test_empty_streams_allowed(self):
        system = small_system()
        stats = run_trace(system, [[], reads(range(5))], warmup_fraction=0.0)
        assert stats.accesses == 5


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        def run(warmup):
            system = small_system()
            streams = [reads(range(40))]
            return run_trace(system, streams, warmup_fraction=warmup)

        cold = run(0.0)
        warm = run(0.5)
        assert warm.accesses == 20
        assert cold.accesses == 40
        # The warm run's measured window repeats already-cached blocks.
        assert warm.llc_misses < cold.llc_misses

    def test_warmup_preserves_traffic_meter_identity(self):
        system = small_system()
        meter = system.stats.traffic
        run_trace(system, [reads(range(20))], warmup_fraction=0.5)
        assert system.stats.traffic is meter
        assert meter.total_bytes > 0

    def test_cycles_measure_post_warmup_region(self):
        system = small_system()
        streams = [reads(range(100))]
        stats = run_trace(system, streams, warmup_fraction=0.5)
        system2 = small_system()
        full = run_trace(system2, [reads(range(100))], warmup_fraction=0.0)
        assert 0 < stats.cycles < full.cycles


class TestEdgeCases:
    def test_all_streams_empty(self):
        system = small_system()
        stats = run_trace(system, [[], [], []], warmup_fraction=0.4)
        assert stats.accesses == 0
        assert stats.cycles == 0

    def test_no_streams_at_all(self):
        system = small_system()
        stats = run_trace(system, [], warmup_fraction=0.4)
        assert stats.accesses == 0
        assert stats.cycles == 0

    def test_single_access_stream(self):
        system = small_system()
        stats = run_trace(system, [reads([0x40])], warmup_fraction=0.4)
        assert stats.accesses == 1
        assert stats.cycles > 0

    def test_single_access_with_high_warmup_still_measures_it(self):
        # int(1 * 0.99) == 0 warmup accesses, so the one access counts.
        system = small_system()
        stats = run_trace(system, [reads([0x40])], warmup_fraction=0.99)
        assert stats.accesses == 1
        assert stats.cycles >= 0

    def test_warmup_consuming_nearly_everything(self):
        # int(10 * 0.99) == 9: the clamp must leave >= 1 measured access
        # and a non-negative cycle count.
        system = small_system()
        stats = run_trace(system, [reads(range(10))], warmup_fraction=0.99)
        assert stats.accesses >= 1
        assert stats.cycles >= 0

    def test_zero_warmup_measures_everything(self):
        system = small_system()
        stats = run_trace(system, [reads(range(7)), reads(range(7))],
                          warmup_fraction=0.0)
        assert stats.accesses == 14

    def test_empty_run_with_auditor(self):
        from repro.resilience import ProtocolAuditor

        system = small_system()
        stats = run_trace(system, [[]], auditor=ProtocolAuditor(interval=10))
        assert stats.accesses == 0


class TestDeterminism:
    def test_same_trace_same_result(self):
        def run():
            system = small_system()
            streams = [reads(range(c * 100, c * 100 + 30)) for c in range(4)]
            return run_trace(system, streams).cycles

        assert run() == run()


def mixed_streams():
    config = SystemConfig(num_cores=8, l1_kb=1, l2_kb=4, scheme=TinySpec())
    return config, generate_streams("bodytrack", config, 600, seed=5)


def engine_for(config, streams, observed, warmup_fraction=0.0):
    hooks = (
        {"auditor": ProtocolAuditor(interval=16), "oracle": ValueOracle()}
        if observed
        else {}
    )
    system = System(config)
    return system, TraceEngine(system, streams, warmup_fraction, **hooks)


#: Step limits as a function of the trace's total access count.
LIMITS = {
    "0": lambda total: 0,
    "1": lambda total: 1,
    "50": lambda total: 50,
    "total": lambda total: total,
    "total+5": lambda total: total + 5,
}


class TestLimit:
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["unobserved", "observed"])
    @pytest.mark.parametrize("name", LIMITS)
    def test_limit_bounds_the_run(self, name, observed):
        config, streams = mixed_streams()
        total = sum(len(stream) for stream in streams)
        limit = LIMITS[name](total)
        ran = min(limit, total)
        system, engine = engine_for(config, streams, observed)
        bounded = engine.run(limit=limit)
        assert engine.processed == ran
        assert sum(engine.executed) == ran
        assert system.access_index == ran
        assert bounded.accesses == ran
        replay = run_trace(
            System(config),
            truncate_streams(streams, engine.executed),
            warmup_fraction=0.0,
        )
        assert replay.dump() == bounded.dump()

    def test_warmup_is_a_fraction_of_the_bounded_run(self):
        config, streams = mixed_streams()
        _, engine = engine_for(config, streams, False, warmup_fraction=0.4)
        bounded = engine.run(limit=300)
        assert bounded.accesses == 300 - int(300 * 0.4)
        replay = run_trace(
            System(config),
            truncate_streams(streams, engine.executed),
            warmup_fraction=0.4,
        )
        assert replay.dump() == bounded.dump()

    def test_negative_limit_rejected(self):
        config, streams = mixed_streams()
        _, engine = engine_for(config, streams, False)
        with pytest.raises(ValueError):
            engine.run(limit=-1)

    def test_access_counts_before_the_oracle_checks_it(self):
        # A violation raised after System.access returns leaves the
        # access counted, so the counts cut the streams at the failure.
        class StopAt(ValueOracle):
            def observe(self, system, core, addr, kind, pre_state):
                if system.access_index == 37:
                    raise OracleViolation("stop")

        config, streams = mixed_streams()
        system = System(config)
        engine = TraceEngine(system, streams, 0.0, oracle=StopAt())
        with pytest.raises(OracleViolation):
            engine.run()
        assert engine.processed == sum(engine.executed) == 37
