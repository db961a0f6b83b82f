"""Unit tests for STRA counters and categories (paper §IV-A)."""

import random

import pytest

from repro.core.stra import (
    NUM_CATEGORIES,
    STRA_COUNTER_MAX,
    StraCounters,
    stra_category,
)


class TestCategoryBoundaries:
    def test_zero_ratio_is_c0(self):
        assert stra_category(0.0) == 0

    def test_c1_covers_up_to_half(self):
        assert stra_category(0.01) == 1
        assert stra_category(0.5) == 1

    def test_c2_boundary(self):
        assert stra_category(0.500001) == 2
        assert stra_category(0.75) == 2

    @pytest.mark.parametrize(
        "i", range(1, 7), ids=[f"C{i}" for i in range(1, 7)]
    )
    def test_interval_upper_bounds(self, i):
        """Ci for i in [1,6] covers (1 - 1/2^(i-1), 1 - 1/2^i]."""
        upper = 1 - 1 / (1 << i)
        lower = 1 - 1 / (1 << (i - 1))
        assert stra_category(upper) == i
        if lower > 0:
            assert stra_category(lower) == i - 1

    def test_c7_covers_top(self):
        assert stra_category(1.0) == 7
        assert stra_category(1 - 1 / 64 + 1e-9) == 7

    def test_exactly_63_64_is_c6(self):
        assert stra_category(1 - 1 / 64) == 6

    def test_num_categories(self):
        assert NUM_CATEGORIES == 8


class TestStraCounters:
    def test_fresh_ratio_zero(self):
        counters = StraCounters()
        assert counters.ratio() == 0.0
        assert counters.category() == 0

    def test_pure_shared_reads_reach_c7(self):
        counters = StraCounters()
        counters.record_other()  # the initial fill access
        for _ in range(200):
            counters.record_shared_read()
        assert counters.category() == 7

    def test_mixed_traffic_mid_category(self):
        counters = StraCounters()
        for _ in range(10):
            counters.record_shared_read()
            counters.record_other()
        assert counters.category() == 1  # ratio 0.5

    def test_halving_on_strac_saturation(self):
        counters = StraCounters()
        for _ in range(STRA_COUNTER_MAX):
            counters.record_shared_read()
        assert counters.strac < STRA_COUNTER_MAX

    def test_halving_on_oac_saturation(self):
        counters = StraCounters(strac=10)
        for _ in range(STRA_COUNTER_MAX):
            counters.record_other()
        assert counters.oac < STRA_COUNTER_MAX
        assert counters.strac <= 10 // 2 + 1

    def test_halving_preserves_ratio_roughly(self):
        counters = StraCounters()
        for _ in range(3):
            counters.record_other()
        for _ in range(100):
            counters.record_shared_read()
        assert counters.ratio() > 0.9

    def test_reset(self):
        counters = StraCounters(strac=5, oac=5)
        counters.reset()
        assert (counters.strac, counters.oac) == (0, 0)

    def test_counters_bounded_by_six_bits(self):
        counters = StraCounters()
        for _ in range(10_000):
            counters.record_shared_read()
            counters.record_other()
        assert counters.strac <= STRA_COUNTER_MAX
        assert counters.oac <= STRA_COUNTER_MAX


class TestIntegerCategory:
    """category() computes in integers what stra_category(ratio()) does
    in floats; the float mapping stays in the module as the reference."""

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_every_counter_pair_matches_the_ratio_mapping(self, bits):
        limit = (1 << bits) - 1
        for strac in range(2 * limit + 1):
            for oac in range(2 * limit + 1):
                counters = StraCounters(strac, oac, limit)
                assert counters.category() == stra_category(counters.ratio()), (
                    strac,
                    oac,
                )

    def test_wide_random_pairs_match_the_ratio_mapping(self):
        rng = random.Random(3)
        categories = set()
        for _ in range(20_000):
            # Counters of random magnitude, so every category comes up.
            strac = rng.randrange(1 << rng.randint(0, 20))
            oac = rng.randrange(1 << rng.randint(0, 20))
            counters = StraCounters(strac, oac)
            assert counters.category() == stra_category(counters.ratio()), (
                strac,
                oac,
            )
            categories.add(counters.category())
        assert categories == set(range(NUM_CATEGORIES))
