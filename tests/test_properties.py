"""Property-based tests (hypothesis) on protocol and structure invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_system
from repro.coherence.info import CohInfo
from repro.core.stra import STRA_COUNTER_MAX, StraCounters, stra_category
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    TinySpec,
)
from repro.types import AccessKind

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

access_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=120),
    st.sampled_from([AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH]),
)

trace_strategy = st.lists(access_strategy, min_size=1, max_size=250)


def run_and_check(scheme, trace):
    system = make_system(scheme)
    now = 0
    for core, addr, kind in trace:
        latency = system.access(core, addr, kind, now)
        assert latency > 0
        now += latency
    system.check_invariants()
    return system


class TestProtocolInvariants:
    """For every scheme: after any access sequence, tracking structures
    and private caches agree exactly, and a single writer holds any
    modified block."""

    @SLOW
    @given(trace=trace_strategy)
    def test_sparse(self, trace):
        run_and_check(SparseSpec(ratio=1 / 8), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_shared_only(self, trace):
        run_and_check(SparseSpec(ratio=1 / 16, shared_only=True), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_in_llc(self, trace):
        run_and_check(InLLCSpec(), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_tiny_dstra(self, trace):
        run_and_check(TinySpec(ratio=1 / 16, policy="dstra"), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_tiny_gnru_spill(self, trace):
        run_and_check(
            TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32),
            trace,
        )

    @SLOW
    @given(trace=trace_strategy)
    def test_mgd(self, trace):
        run_and_check(MgdSpec(ratio=1 / 8), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_stash(self, trace):
        run_and_check(StashSpec(ratio=1 / 16), trace)

    @SLOW
    @given(trace=trace_strategy)
    def test_write_read_visibility(self, trace):
        """After a write, the writer holds M until someone else accesses
        the block; a subsequent read from another core always succeeds."""
        system = run_and_check(SparseSpec(ratio=2.0), trace)
        system.access(0, 5, AccessKind.WRITE, 10**9)
        from repro.types import PrivateState

        assert system.cores[0].state_of(5) is PrivateState.MODIFIED
        system.access(1, 5, AccessKind.READ, 10**9 + 100)
        assert system.cores[1].state_of(5) is PrivateState.SHARED
        system.check_invariants()


class TestCohInfoProperties:
    @given(cores=st.lists(st.integers(0, 127), min_size=1, max_size=40))
    def test_sharer_list_matches_added(self, cores):
        coh = CohInfo()
        for core in cores:
            coh.add_sharer(core)
        assert coh.sharer_list() == sorted(set(cores))

    @given(
        cores=st.lists(st.integers(0, 63), min_size=1, max_size=30),
        removed=st.lists(st.integers(0, 63), max_size=30),
    )
    def test_remove_is_set_difference(self, cores, removed):
        coh = CohInfo()
        for core in cores:
            coh.add_sharer(core)
        for core in removed:
            coh.remove(core)
        assert coh.sharer_list() == sorted(set(cores) - set(removed))

    @given(owner=st.integers(0, 127))
    def test_owner_roundtrip(self, owner):
        coh = CohInfo()
        coh.set_owner(owner)
        assert coh.holders() == [owner]
        coh.remove(owner)
        assert coh.is_idle


class TestStraProperties:
    @given(ratio=st.floats(min_value=0.0, max_value=1.0))
    def test_category_in_range(self, ratio):
        assert 0 <= stra_category(ratio) <= 7

    @given(
        ratios=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        )
    )
    def test_category_monotone(self, ratios):
        low, high = sorted(ratios)
        assert stra_category(low) <= stra_category(high)

    @given(
        events=st.lists(st.booleans(), min_size=1, max_size=500)
    )
    def test_counters_always_bounded(self, events):
        counters = StraCounters()
        for is_shared_read in events:
            if is_shared_read:
                counters.record_shared_read()
            else:
                counters.record_other()
            assert counters.strac <= STRA_COUNTER_MAX
            assert counters.oac <= STRA_COUNTER_MAX
            assert 0.0 <= counters.ratio() <= 1.0


class TestLatencyProperties:
    @SLOW
    @given(trace=trace_strategy)
    def test_execution_time_monotone_in_trace_length(self, trace):
        """Adding accesses never makes the run finish earlier."""
        from repro.sim.engine import run_trace

        def cycles(accesses):
            system = make_system(SparseSpec(ratio=2.0))
            streams = [[] for _ in range(4)]
            for core, addr, kind in accesses:
                streams[core].append((addr, kind, 1))
            return run_trace(system, streams, warmup_fraction=0.0).cycles

        assert cycles(trace) <= cycles(trace + trace[-1:])
