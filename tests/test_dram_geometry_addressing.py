"""Tests for DRAM geometry, address mapping and the operating point."""

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.dram.address_map import AddressMapper
from repro.dram.geometry import CellLocation, DramGeometry, RankLocation, small_geometry
from repro.dram.operating import OperatingPoint
from repro.dram.retention import bit_failure_probability_grid
from repro.errors import ConfigurationError


class TestRankLocation:
    def test_label_matches_paper_figures(self):
        assert RankLocation(2, 0).label == "DIMM2/rank0"

    def test_ordering_is_stable(self):
        assert RankLocation(0, 1) < RankLocation(1, 0)

    def test_negative_indices_rejected(self):
        with pytest.raises(ConfigurationError):
            RankLocation(-1, 0)


class TestDramGeometry:
    def test_default_geometry_matches_platform(self):
        geometry = DramGeometry()
        assert geometry.num_dimms == 4
        assert geometry.ranks_per_dimm == 2
        assert geometry.num_ranks == 8

    def test_iter_ranks_yields_all(self):
        geometry = DramGeometry()
        ranks = list(geometry.iter_ranks())
        assert len(ranks) == 8
        assert len(set(ranks)) == 8

    def test_rank_index_round_trip(self):
        geometry = DramGeometry()
        for index, rank in enumerate(geometry.iter_ranks()):
            assert geometry.rank_index(rank) == index
            assert geometry.rank_from_index(index) == rank

    def test_word_index_round_trip_small(self):
        geometry = small_geometry()
        for word_index in range(0, geometry.total_words, 977):
            cell = geometry.cell_from_word_index(word_index)
            assert geometry.word_index(cell) == word_index

    def test_total_words_consistent(self):
        geometry = small_geometry()
        assert geometry.total_words == (
            geometry.num_ranks * geometry.banks_per_rank *
            geometry.rows_per_bank * geometry.columns_per_row
        )

    def test_invalid_cell_rejected(self):
        geometry = small_geometry()
        with pytest.raises(ConfigurationError):
            geometry.validate_cell(CellLocation(0, 0, 0, geometry.rows_per_bank, 0))

    def test_invalid_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            DramGeometry().validate_rank(RankLocation(9, 0))

    def test_negative_indices_rejected(self):
        geometry = small_geometry()
        with pytest.raises(ConfigurationError):
            geometry.cell_from_word_index(-1)
        with pytest.raises(ConfigurationError):
            geometry.rank_from_index(-1)

    def test_non_positive_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            DramGeometry(num_dimms=0)


class TestAddressMapper:
    def test_addresses_interleave_across_ranks(self):
        geometry = DramGeometry()
        mapper = AddressMapper(geometry, interleave_bytes=256)
        ranks = mapper.rank_indices(np.arange(8) * 256)
        assert len(set(ranks.tolist())) == 8

    def test_one_interleave_chunk_shares_a_rank(self):
        mapper = AddressMapper(DramGeometry(), interleave_bytes=256)
        # Every byte of the first chunk, sub-word offsets included.
        assert set(mapper.rank_indices(np.arange(256)).tolist()) == {0}
        assert mapper.rank_indices(np.array([256]))[0] == 1

    def test_footprint_spread_is_even(self):
        mapper = AddressMapper(DramGeometry())
        for footprint_bytes in (units.MIB, units.MIB + 40):
            words = footprint_bytes // units.WORD_BYTES
            ranks = mapper.rank_indices(np.arange(words) * units.WORD_BYTES)
            counts = np.bincount(ranks, minlength=mapper.geometry.num_ranks)
            assert counts.max() - counts.min() <= mapper.words_per_interleave
            assert counts.sum() == words

    def test_interleave_must_be_word_multiple(self):
        with pytest.raises(ConfigurationError):
            AddressMapper(DramGeometry(), interleave_bytes=100)


class TestOperatingPoint:
    def test_nominal_defaults(self):
        op = OperatingPoint()
        assert op.trefp_s == pytest.approx(units.NOMINAL_TREFP_S)
        assert op.vdd_v == pytest.approx(units.NOMINAL_VDD_V)

    def test_relaxed_constructor_uses_min_vdd(self):
        op = OperatingPoint.relaxed(2.283, 70.0)
        assert op.vdd_v == pytest.approx(units.MIN_VDD_V)

    def test_out_of_range_trefp_rejected(self):
        with pytest.raises(ConfigurationError):
            OperatingPoint(trefp_s=3.0)
        with pytest.raises(ConfigurationError):
            OperatingPoint(trefp_s=0.001)

    def test_out_of_range_vdd_rejected(self):
        with pytest.raises(ConfigurationError):
            OperatingPoint(vdd_v=1.2)

    def test_out_of_range_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            OperatingPoint(temperature_c=95.0)

    def test_longer_refresh_raises_bit_failure_probability(self):
        nominal, relaxed = (
            OperatingPoint.relaxed(trefp, 50.0) for trefp in (0.064, 0.64)
        )
        p_nominal, p_relaxed = (
            float(bit_failure_probability_grid(op.trefp_s, op.temperature_c, op.vdd_v))
            for op in (nominal, relaxed)
        )
        assert relaxed.trefp_s / units.NOMINAL_TREFP_S == pytest.approx(10.0)
        assert 0.0 <= p_nominal < p_relaxed < 1.0

    def test_replace_keeps_other_fields_and_revalidates(self):
        op = OperatingPoint.relaxed(1.173, 50.0)
        hotter = dataclasses.replace(op, temperature_c=70.0)
        assert (hotter.trefp_s, hotter.vdd_v) == (op.trefp_s, op.vdd_v)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(op, trefp_s=3.0)
