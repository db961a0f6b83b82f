"""Unit tests for SystemConfig (Table I encoding) and scheme specs."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)


class TestPaperConfiguration:
    """The paper preset must reproduce Table I's derived geometry."""

    def test_128_cores(self):
        assert SystemConfig.paper().num_cores == 128

    def test_l1_geometry(self):
        config = SystemConfig.paper()
        assert config.l1_kb == 32 and config.l1_assoc == 8
        assert config.l1_sets == 64
        assert config.l1_latency == 2

    def test_l2_geometry(self):
        config = SystemConfig.paper()
        assert config.l2_kb == 128 and config.l2_assoc == 8
        assert config.l2_blocks == 2048
        assert config.l2_latency == 3

    def test_aggregate_private_blocks(self):
        # N = 128 cores x 128 KB / 64 B = 256K blocks.
        assert SystemConfig.paper().aggregate_private_blocks == 256 * 1024

    def test_llc_is_32mb(self):
        # 512K blocks x 64 B = 32 MB, with 128 banks of 16 ways.
        config = SystemConfig.paper()
        assert config.llc_blocks == 512 * 1024
        assert config.num_banks == 128
        assert config.llc_assoc == 16
        assert config.llc_sets_per_bank == 256

    def test_llc_latencies(self):
        config = SystemConfig.paper()
        assert config.llc_tag_latency == 4
        assert config.llc_data_latency == 2

    def test_directory_sizing(self):
        config = SystemConfig.paper()
        # 2x directory has as many entries as LLC blocks (paper setup).
        assert config.directory_entries(2.0) == config.llc_blocks
        assert config.directory_entries(1 / 16) == 16 * 1024

    def test_hop_is_3ns_at_2ghz(self):
        assert SystemConfig.paper().hop_cycles == 6

    def test_eight_memory_controllers(self):
        assert SystemConfig.paper().dram_channels == 8


class TestScaledConfigurations:
    def test_scaled_preserves_llc_ratio(self):
        config = SystemConfig.scaled(32)
        assert config.llc_blocks == 2 * config.aggregate_private_blocks

    def test_halved_hierarchy(self):
        full = SystemConfig.scaled(32)
        half = SystemConfig.halved_hierarchy(32)
        assert half.l2_blocks == full.l2_blocks // 2
        assert half.llc_blocks == full.llc_blocks // 2

    def test_directory_never_below_one_entry_per_bank(self):
        config = SystemConfig.scaled(32)
        assert config.directory_entries(1e-9) == config.num_banks


class TestValidation:
    def test_single_core_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=1)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=24)

    def test_negative_llc_factor_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=4, llc_capacity_factor=-1)

    def test_unknown_tiny_policy_rejected(self):
        with pytest.raises(ConfigError):
            TinySpec(policy="random")

    @pytest.mark.parametrize("bits", [1, 0, -1])
    def test_stra_counters_too_narrow_to_count_rejected(self, bits):
        # Below two bits a counter halves on its first count and never
        # leaves zero; -1 would fail later as a negative shift.
        with pytest.raises(ConfigError):
            TinySpec(stra_counter_bits=bits)

    def test_narrowest_counting_stra_width_accepted(self):
        assert TinySpec(stra_counter_bits=2).stra_counter_bits == 2


class TestSchemeSpecs:
    def test_spec_names(self):
        assert SparseSpec().name == "sparse"
        assert InLLCSpec().name == "in_llc"
        assert TinySpec().name == "tiny"
        assert MgdSpec().name == "mgd"
        assert StashSpec().name == "stash"

    def test_specs_are_frozen(self):
        spec = SparseSpec()
        with pytest.raises(Exception):
            spec.ratio = 1.0

    def test_tiny_defaults_match_paper(self):
        spec = TinySpec()
        assert spec.policy == "gnru"
        assert spec.spill_window == 8192
