"""Unit tests for workload profiles and the synthetic trace generator."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_generator import generate_reference
from repro.analysis.runner import RunScale
from repro.errors import ConfigError
from repro.sim.config import SparseSpec, SystemConfig
from repro.types import AccessKind
from repro.workloads.generator import (
    SyntheticTraceGenerator,
    _CODE_BASE,
    _HOT_BASE,
    _POOL_BASE,
    _PRIVATE_BASE,
    _STREAM_BASE,
    generate_streams,
)
from repro.workloads.profiles import APPLICATIONS, PROFILES, WorkloadProfile, profile


def small_config() -> SystemConfig:
    return SystemConfig(num_cores=4, l1_kb=1, l2_kb=4, scheme=SparseSpec())


class TestProfiles:
    def test_table_ii_applications_present(self):
        expected = {
            "bodytrack", "swaptions", "barnes", "ocean_cp", "314.mgrid",
            "316.applu", "324.apsi", "330.art", "SPECJBB", "SPECWeb-B",
            "SPECWeb-E", "SPECWeb-S", "TPC-C", "TPC-E", "TPC-H",
            "sunflow", "compress",
        }
        assert set(APPLICATIONS) == expected
        assert len(APPLICATIONS) == 17

    def test_fractions_sum_to_one(self):
        for app in PROFILES.values():
            total = (
                app.private_fraction + app.shared_fraction + app.hot_fraction
                + app.code_fraction + app.stream_fraction
            )
            assert total == pytest.approx(1.0), app.name

    def test_lookup(self):
        assert profile("barnes").name == "barnes"

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            profile("doom")

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadProfile("bad", "", 0.5, 0.5, 0.5, 0.0, 0.0)

    def test_high_miss_apps_stream_heavily(self):
        """§V-A: mgrid/art/ocean have the biggest streaming shares."""
        high = {"314.mgrid", "330.art", "ocean_cp"}
        low = set(APPLICATIONS) - high
        min_high = min(PROFILES[a].stream_fraction for a in high)
        max_low = max(PROFILES[a].stream_fraction for a in low)
        assert min_high > max_low

    def test_barnes_has_largest_hot_share(self):
        """Fig. 7: barnes's lengthened accesses dwarf everyone else's."""
        barnes = PROFILES["barnes"].hot_fraction
        assert barnes == max(p.hot_fraction for p in PROFILES.values())

    def test_commercial_apps_code_heavy(self):
        """Fig. 6: code accesses dominate lengthened paths for
        SPECWeb/TPC."""
        for app in ("SPECWeb-B", "TPC-C", "SPECJBB"):
            assert PROFILES[app].code_fraction > PROFILES["barnes"].code_fraction


class TestGenerator:
    def _streams(self, app="bodytrack", total=3000, seed=3, config=None):
        return generate_streams(app, config or small_config(), total, seed=seed)

    def test_deterministic(self):
        a = self._streams()
        b = self._streams()
        assert a == b

    def test_seed_changes_trace(self):
        a = self._streams(seed=1)
        b = self._streams(seed=2)
        assert a != b

    def test_one_stream_per_core(self):
        config = small_config()
        streams = self._streams(config=config)
        assert len(streams) == config.num_cores

    def test_total_includes_init_pass(self):
        config = small_config()
        generator = SyntheticTraceGenerator(profile("bodytrack"), config, seed=0)
        footprint = (
            config.num_cores * generator.private_blocks
            + generator.pool_blocks
            + generator.hot_blocks
            + generator.code_blocks
        )
        streams = generator.generate(1000)
        assert sum(len(s) for s in streams) == 1000 + footprint

    def test_cores_only_touch_their_private_region(self):
        streams = self._streams()
        for core, stream in enumerate(streams):
            for addr, _kind, _gap in stream:
                if _PRIVATE_BASE <= addr < _POOL_BASE:
                    region = (addr - _PRIVATE_BASE) // ((1 << 24) + 32 * 17)
                    assert region == core

    def test_stream_addresses_never_repeat(self):
        streams = self._streams(app="314.mgrid", total=4000)
        seen = set()
        for stream in streams:
            for addr, _kind, _gap in stream:
                if addr >= _STREAM_BASE:
                    assert addr not in seen
                    seen.add(addr)
        assert seen

    def test_code_accesses_are_ifetches(self):
        streams = self._streams(app="SPECWeb-B", total=4000)
        for stream in streams:
            for addr, kind, _gap in stream:
                if _CODE_BASE <= addr < _STREAM_BASE:
                    assert kind is AccessKind.IFETCH

    def test_hot_blocks_mostly_reads(self):
        streams = self._streams(app="barnes", total=6000)
        hot = [
            kind
            for stream in streams
            for addr, kind, _gap in stream
            if _HOT_BASE <= addr < _CODE_BASE
        ]
        writes = sum(1 for kind in hot if kind is AccessKind.WRITE)
        assert hot and writes / len(hot) < 0.1

    def test_pool_sharer_windows_respected(self):
        config = small_config()
        generator = SyntheticTraceGenerator(profile("TPC-C"), config, seed=5)
        streams = generator.generate(6000)
        stride = 97
        touched = {}
        for core, stream in enumerate(streams):
            for addr, _kind, _gap in stream:
                if _POOL_BASE <= addr < _HOT_BASE:
                    index = (addr - _POOL_BASE) // stride
                    touched.setdefault(index, set()).add(core)
        for index, cores in touched.items():
            width = int(generator._pool_width[index])
            assert len(cores) <= width

    def test_gaps_near_profile_cpi(self):
        streams = self._streams(total=5000)
        gaps = [gap for stream in streams for _addr, _kind, gap in stream]
        average = sum(gaps) / len(gaps)
        assert abs(average - profile("bodytrack").cpi_gap) < 3

    def test_invalid_total_rejected(self):
        generator = SyntheticTraceGenerator(profile("barnes"), small_config())
        with pytest.raises(ConfigError):
            generator.generate(0)

    def test_all_seventeen_apps_generate(self):
        config = small_config()
        for app in APPLICATIONS:
            streams = generate_streams(app, config, 500, seed=1)
            assert sum(len(s) for s in streams) > 500


def _micro_private_hit() -> WorkloadProfile:
    """The hot-path microbenchmark's profile, imported, not copied."""
    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "bench_micro_hotpath", benchmarks / "bench_micro_hotpath.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MICRO_PRIVATE_HIT


def _fields(streams) -> list:
    """Each access, its type, and the type of each of its fields."""
    return [
        [(access, type(access), *map(type, access)) for access in stream]
        for stream in streams
    ]


def _assert_matches_reference(app, config, total, seed) -> None:
    generated = SyntheticTraceGenerator(app, config, seed).generate(total)
    reference = generate_reference(SyntheticTraceGenerator(app, config, seed), total)
    assert _fields(generated) == _fields(reference)


@st.composite
def _profiles(draw) -> WorkloadProfile:
    # Integer weights, so every subset of the five regions occurs,
    # streaming included, each region alone too.
    weights = draw(
        st.lists(st.integers(0, 4), min_size=5, max_size=5).filter(any)
    )
    fractions = [weight / sum(weights) for weight in weights]
    return WorkloadProfile(
        "hypothesis",
        "a random region mix",
        *fractions,
        private_region_factor=draw(st.sampled_from([0.05, 0.9, 1.5])),
        pool_factor=draw(st.sampled_from([0.005, 0.02])),
        hot_blocks_per_core=draw(st.sampled_from([0.5, 4.0])),
        code_blocks_per_core=draw(st.sampled_from([0.5, 8.0])),
        write_fraction_private=draw(st.sampled_from([0.0, 0.3, 1.0])),
        write_fraction_shared=draw(st.sampled_from([0.0, 0.15])),
        hot_write_fraction=draw(st.sampled_from([0.0, 0.01])),
        private_zipf_exponent=draw(st.sampled_from([0.0, 0.55, 1.1])),
        hot_zipf_exponent=draw(st.sampled_from([0.0, 0.8])),
        cpi_gap=draw(st.integers(0, 40)),
    )


class TestAssemblyMatchesReference:
    """``generate`` assembles each core's stream from the drawn arrays;
    tests/reference_generator.py appends the same draws one access at a
    time. The two must agree access by access, in value and in type:
    the reference appends exact ``(int, AccessKind, int)`` tuples."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=_profiles(),
        cores=st.sampled_from([2, 4, 8, 16]),
        total=st.integers(1, 3000),
        seed=st.integers(0, 2**16),
    )
    def test_random_profiles(self, app, cores, total, seed):
        config = SystemConfig(
            num_cores=cores, l1_kb=1, l2_kb=4, scheme=SparseSpec()
        )
        _assert_matches_reference(app, config, total, seed)

    @pytest.mark.parametrize("app", [*APPLICATIONS, "micro_private_hit"])
    def test_every_application_at_quick_scale(self, app):
        scale = RunScale.quick()
        config = scale.make_config(SparseSpec())
        app = _micro_private_hit() if app == "micro_private_hit" else profile(app)
        for seed in (0, 1):
            _assert_matches_reference(app, config, scale.total_accesses, seed)
