"""Unit tests for the analysis layer: tables, runner, cache."""

import pytest

from repro.analysis.cache import cached_run
from repro.analysis.runner import RunScale, run_app, scale_from_env
from repro.analysis.tables import format_table, geomean, mean
from repro.sim.config import SparseSpec, TinySpec


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            "T", ["a", "bb"], ["c1", "c2"],
            {"a": [1.0, 2.0], "bb": [3.0, 4.0]},
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "c1" in lines[1] and "c2" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_format_table_handles_none(self):
        text = format_table("T", ["a"], ["c"], {"a": [None]})
        assert "-" in text.splitlines()[-1]

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_skips_nonpositive(self):
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestRunScale:
    def test_presets_ordered_by_size(self):
        quick, default, full = RunScale.quick(), RunScale.default(), RunScale.full()
        assert quick.total_accesses < default.total_accesses < full.total_accesses

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert scale_from_env() == RunScale.quick()
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scale_from_env() == RunScale.full()
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_env() == RunScale.default()
        monkeypatch.setenv("REPRO_SCALE", "quik")
        with pytest.raises(ValueError, match="'quik'.*quick, default or full"):
            scale_from_env()

    def test_make_config_preserves_ratios(self):
        config = RunScale().make_config(SparseSpec())
        assert config.llc_blocks == 2 * config.aggregate_private_blocks

    def test_tiny_spec_uses_scaled_window(self):
        scale = RunScale(spill_window=77)
        spec = scale.tiny_spec(1 / 64, spill=True)
        assert isinstance(spec, TinySpec)
        assert spec.spill_window == 77 and spec.spill


SMALL = RunScale(num_cores=4, total_accesses=1500, l1_kb=1, l2_kb=4)


class TestRunApp:
    def test_returns_result_with_stats(self):
        result = run_app("compress", SparseSpec(ratio=2.0), SMALL)
        assert result.app == "compress"
        assert result.scheme == "sparse"
        assert result.cycles > 0
        assert result.stats.accesses > 0

    def test_accepts_profile_object(self):
        from repro.workloads.profiles import profile

        result = run_app(profile("compress"), SparseSpec(ratio=2.0), SMALL)
        assert result.app == "compress"

    def test_normalized_cycles(self):
        base = run_app("compress", SparseSpec(ratio=2.0), SMALL)
        assert base.normalized_cycles(base) == 1.0


class TestDiskCache:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")
        first = cached_run("compress", SparseSpec(ratio=2.0), SMALL)
        assert not first.meta.get("cached")
        second = cached_run("compress", SparseSpec(ratio=2.0), SMALL)
        assert second.meta.get("cached")
        assert second.cycles == first.cycles
        assert second.stats.llc_misses == first.stats.llc_misses

    def test_distinct_schemes_distinct_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")
        a = cached_run("compress", SparseSpec(ratio=2.0), SMALL)
        b = cached_run("compress", SparseSpec(ratio=1 / 16), SMALL)
        assert a.cycles != b.cycles or a.stats.back_invalidations != b.stats.back_invalidations

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        cached_run("compress", SparseSpec(ratio=2.0), SMALL)
        assert not list(tmp_path.iterdir())

    def test_no_variable_swaps_a_points_streams(self, tmp_path, monkeypatch):
        # Regression: a capture named in the environment used to replace
        # the streams of any run, and the replayed stats were published
        # under the synthetic point's key, so every later clean run of
        # that point read the capture's numbers from the cache.
        from pathlib import Path

        capture = Path(__file__).parent / "corpus" / "private-heavy.rtrace"
        scale = RunScale(num_cores=8, total_accesses=3_000)
        monkeypatch.setenv("REPRO_CACHE", "on")
        dumps = []
        for name, value in (("set", str(capture)), ("unset", None)):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            if value is None:
                monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
            else:
                monkeypatch.setenv("REPRO_TRACE_FILE", value)
            result = cached_run("barnes", SparseSpec(ratio=2.0), scale)
            assert not result.meta.get("cached")  # a fresh cache
            dumps.append(result.stats.dump())
        assert dumps[0] == dumps[1]
