"""The packed SECDED lane layout and the cell array's batch addressing.

`SecdedCode` in `tests/oracles/ecc.py` runs on `(N, 2)` uint64 lanes;
these tests pin the lane packing helpers, empty batches and the lazy
bit view of a decode.  The second half pins the cell array's two forms
of batch addressing (`CellLocation` lists and word-index arrays).
"""

import numpy as np
import pytest

from repro.dram.calibration import DramCalibration, RetentionCalibration
from repro.dram.ecc import ErrorClass
from repro.errors import ConfigurationError

from tests.oracles.cells import (
    BatchReadResult,
    CellArrayConfig,
    CellArraySimulator,
    cell_from_word_index,
    small_geometry,
)
from tests.oracles.ecc import (
    BatchDecodeResult,
    SecdedCode,
    pack_bits,
    unpack_codewords,
)

CODE = SecdedCode()


def test_encode_packed_matches_packed_encode_batch():
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2 ** 63, size=257, dtype=np.uint64)
    words[0] = 0
    words[1] = np.uint64(2 ** 64 - 1)
    lanes = CODE.encode_packed(words)
    assert lanes.shape == (257, 2) and lanes.dtype == np.uint64
    assert np.array_equal(unpack_codewords(lanes), CODE.encode_batch(words))
    # Lane 1 only ever uses its low byte (7 Hamming bits + overall parity).
    assert int(lanes[:, 1].max()) < 256
    decoded = CODE.decode_batch(lanes)
    assert np.array_equal(decoded.data_words, words)
    assert decoded.counts()[ErrorClass.NO_ERROR] == 257


class TestPackHelpers:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        block = rng.integers(0, 2, size=(50, 72), dtype=np.uint8)
        assert np.array_equal(unpack_codewords(pack_bits(block)), block)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_bits(np.zeros((3, 71), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            unpack_codewords(np.zeros((3, 3), dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            unpack_codewords(np.zeros((3, 2), dtype=np.int64))


    def test_non_bit_entries_rejected(self):
        bits = np.zeros((2, 64), dtype=np.uint8)
        bits[1, 5] = 2
        with pytest.raises(ConfigurationError):
            CODE.encode_batch(bits)
        with pytest.raises(ConfigurationError):
            CODE.encode_packed(bits)

class TestEmptyBatches:
    """Regression: N=0 batches used to trip shape/validation errors."""

    def test_empty_encode(self):
        assert CODE.encode_batch(np.zeros(0, dtype=np.uint64)).shape == (0, 72)
        assert CODE.encode_batch([]).shape == (0, 72)
        lanes = CODE.encode_packed(np.zeros(0, dtype=np.uint64))
        assert lanes.shape == (0, 2) and lanes.dtype == np.uint64

    def test_empty_decode(self):
        for block in (
            np.zeros((0, 72), dtype=np.uint8),
            np.zeros((0, 2), dtype=np.uint64),
        ):
            result = CODE.decode_batch(block)
            assert isinstance(result, BatchDecodeResult)
            assert len(result) == 0
            assert result.error_codes.shape == (0,)
            assert result.corrected_bits.shape == (0,)
            assert result.data_words.shape == (0,)
            assert result.data_bits.shape == (0, 64)
            assert result.counts()[ErrorClass.NO_ERROR] == 0


class TestLazyBatchDecodeResult:
    def test_bits_view_materialises_from_words(self):
        result = BatchDecodeResult(
            data_words=np.array([5], dtype=np.uint64),
            error_codes=np.zeros(1, dtype=np.uint8),
            corrected_bits=np.full(1, -1, dtype=np.int64),
        )
        assert result.data_bits[0, :3].tolist() == [1, 0, 1]
        assert result.result(0).data[:3].tolist() == [1, 0, 1]


# --------------------------------------------------------------------------
# Cell-array batch addressing
# --------------------------------------------------------------------------
def weak_calibration(log_median=4.0, log_sigma=1.2) -> DramCalibration:
    return DramCalibration(
        retention=RetentionCalibration(
            log_median_retention_50c=log_median, log_sigma=log_sigma
        )
    )


def tiny_config(**overrides) -> CellArrayConfig:
    defaults = dict(
        geometry=small_geometry(),
        trefp_s=2.283,
        temperature_c=70.0,
        calibration=weak_calibration(),
        seed=13,
    )
    defaults.update(overrides)
    return CellArrayConfig(**defaults)


class TestBatchReadLocations:
    def test_index_addressing_matches_cell_locations(self):
        """Word-index batches behave exactly like CellLocation batches."""
        sim_idx = CellArraySimulator(tiny_config())
        sim_loc = CellArraySimulator(tiny_config())
        n = 1000
        values = np.arange(n, dtype=np.uint64) | np.uint64(0xFF00FF00FF00FF00)
        locations = [cell_from_word_index(sim_loc.geometry, i) for i in range(n)]

        sim_idx.write_batch(np.arange(n), values)
        sim_loc.write_batch(locations, values)
        for sim in (sim_idx, sim_loc):
            sim.idle(600.0)
        by_index = sim_idx.read_batch(np.arange(n), workload="wl")
        by_location = sim_loc.read_batch(locations, workload="wl")

        assert np.array_equal(
            by_index.decode.error_codes, by_location.decode.error_codes
        )
        assert np.array_equal(
            by_index.decode.data_words, by_location.decode.data_words
        )
        # Logged locations are identical CellLocation values either way.
        assert [r.location for r in sim_idx.error_log] == [
            r.location for r in sim_loc.error_log
        ]

    def test_index_out_of_range_rejected(self):
        sim = CellArraySimulator(tiny_config())
        sim.write_batch(np.arange(4), np.arange(4, dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            sim.read_batch(np.array([0, sim.geometry.total_words]))
        with pytest.raises(ConfigurationError):
            sim.write_batch(np.array([-1]), np.array([0], dtype=np.uint64))

    def test_list_backed_read_keeps_cell_locations(self):
        sim = CellArraySimulator(tiny_config())
        locations = sim.fill([0xFFFFFFFFFFFFFFFF] * 800)
        sim.idle(600.0)
        sweep = sim.read_batch(locations, workload="wl")
        assert list(sweep.locations) == locations
        errored = [loc for loc, code in zip(locations, sweep.decode.error_codes) if code]
        assert errored
        assert errored == [record.location for record in sim.error_log]

    def test_ndarray_backed_read_keeps_word_indices(self):
        sim = CellArraySimulator(tiny_config())
        n = 800
        words = np.arange(n)
        sim.write_batch(words, np.full(n, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
        sim.idle(600.0)
        sweep = sim.read_batch(words, workload="wl")
        assert isinstance(sweep.locations, np.ndarray)
        errored = sweep.locations[sweep.decode.error_codes != 0]
        assert errored.size > 0
        # The logged CellLocations correspond to exactly these word indices.
        as_cells = [cell_from_word_index(sim.geometry, int(word)) for word in errored]
        assert as_cells == [record.location for record in sim.error_log]

    def test_synthetic_result_counts_every_class(self):
        decode = BatchDecodeResult(
            data_words=np.zeros(3, dtype=np.uint64),
            error_codes=np.array([0, 1, 2], dtype=np.uint8),
            corrected_bits=np.full(3, -1, dtype=np.int64),
        )
        result = BatchReadResult(locations=np.array([10, 20, 30]), decode=decode)
        assert len(result) == 3
        assert result.counts() == {
            ErrorClass.NO_ERROR: 1, ErrorClass.CORRECTED: 1,
            ErrorClass.UNCORRECTABLE: 1, ErrorClass.SILENT: 0,
        }
