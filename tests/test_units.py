"""Tests for the platform constants."""

import pytest

from repro import units


class TestUnits:
    def test_word_geometry(self):
        assert units.WORD_BYTES == 8
        assert units.WORD_BITS == 64
        assert units.CODEWORD_BITS == 72

    def test_platform_matches_paper(self):
        assert units.NUM_MCUS == 4
        assert units.RANKS_PER_DIMM == 2
        # 4 DIMMs x 2 ranks x 9 chips = 72 characterized DRAM chips.
        assert units.NUM_MCUS * units.DIMMS_PER_MCU * units.RANKS_PER_DIMM * \
            units.CHIPS_PER_RANK == 72

    def test_trefp_range(self):
        assert units.NOMINAL_TREFP_S == pytest.approx(0.064)
        assert units.MAX_TREFP_S == pytest.approx(2.283)
        assert units.TREFP_SWEEP_S == (0.618, 1.173, 1.727, 2.283)
        assert units.TREFP_UE_SWEEP_S == (1.450, 1.727, 2.283)

    def test_voltage_range(self):
        assert units.MIN_VDD_V == pytest.approx(1.428)
        assert units.NOMINAL_VDD_V == pytest.approx(1.5)
        # The paper scales VDD down by ~5 %.
        assert (1 - units.MIN_VDD_V / units.NOMINAL_VDD_V) == pytest.approx(0.048, abs=0.01)

    def test_capacity_units_are_binary(self):
        assert units.KIB == 2 ** 10
        assert units.MIB == 2 ** 20
        assert units.GIB == 2 ** 30
        assert units.BENCHMARK_FOOTPRINT_BYTES == 8 * units.GIB

    def test_time_units(self):
        assert units.MS == pytest.approx(1e-3)
        assert units.HOUR == 60 * units.MINUTE

    def test_sweeps_lie_inside_the_configurable_range(self):
        for trefp in units.TREFP_SWEEP_S + units.TREFP_UE_SWEEP_S:
            assert units.NOMINAL_TREFP_S < trefp <= units.MAX_TREFP_S
        assert units.NOMINAL_TEMP_C < units.MAX_TEMP_C == pytest.approx(70.0)

    def test_characterization_duration_is_two_hours(self):
        assert units.CHARACTERIZATION_DURATION_S == pytest.approx(7200.0)
