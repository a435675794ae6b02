"""Equivalence harness for the bit-packed SECDED engine and streamed arrays.

The packed uint64-lane codec (`SecdedCode`) is ~an order of magnitude
faster than the original byte-per-bit engine; that engine is the oracle
`UnpackedSecdedCode` in `tests/oracles/ecc.py`, and these tests pin
the two bit-identical — data bits, error codes, corrected-bit indices —
so the fast path can never silently drift.  The second half pins the
streamed `CellArraySimulator`: block-size invariance, the word-index
addressing fast path, the memory-budget guard, and a slow-marked
million-word stress test with a closed-form WER tolerance and a
tracemalloc peak-allocation budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.dram.calibration import DramCalibration, RetentionCalibration
from repro.dram.cells import BatchReadResult, CellArrayConfig, CellArraySimulator
from repro.dram.ecc import (
    BatchDecodeResult,
    ErrorClass,
    SecdedCode,
    pack_bits,
    unpack_codewords,
)
from repro.dram.geometry import DramGeometry, small_geometry
from repro.dram.retention import bit_failure_probability_grid
from repro.errors import ConfigurationError

from tests.oracles.ecc import UnpackedSecdedCode

PACKED = SecdedCode()
ORACLE = UnpackedSecdedCode()


# --------------------------------------------------------------------------
# Packed <-> unpacked codec equivalence
# --------------------------------------------------------------------------
@given(
    words=st.lists(
        st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=16
    ),
    flip_sets=st.lists(
        st.sets(st.integers(min_value=0, max_value=71), min_size=0, max_size=4),
        min_size=16,
        max_size=16,
    ),
)
@settings(max_examples=80, deadline=None)
def test_packed_decode_bit_identical_to_unpacked_oracle(words, flip_sets):
    """Random words, random 0-4 flips: both engines agree bit for bit."""
    data = np.array(words, dtype=np.uint64)
    codewords = ORACLE.encode_batch(data)
    assert np.array_equal(PACKED.encode_batch(data), codewords)

    for row in range(len(words)):
        for position in flip_sets[row]:
            codewords[row, position] ^= 1

    packed = PACKED.decode_batch(codewords)
    oracle = ORACLE.decode_batch(codewords)
    assert np.array_equal(packed.error_codes, oracle.error_codes)
    assert np.array_equal(packed.corrected_bits, oracle.corrected_bits)
    assert np.array_equal(packed.data_bits, oracle.data_bits)
    assert np.array_equal(packed.data_words, oracle.data_words)

    # The lane layout round-trips, and both engines accept lanes directly.
    lanes = pack_bits(codewords)
    assert np.array_equal(unpack_codewords(lanes), codewords)
    from_lanes = PACKED.decode_batch(lanes)
    assert np.array_equal(from_lanes.error_codes, oracle.error_codes)
    assert np.array_equal(from_lanes.data_words, oracle.data_words)
    oracle_from_lanes = ORACLE.decode_batch(lanes)
    assert np.array_equal(oracle_from_lanes.error_codes, oracle.error_codes)


def test_encode_packed_matches_packed_encode_batch():
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2 ** 63, size=257, dtype=np.uint64)
    words[0] = 0
    words[1] = np.uint64(2 ** 64 - 1)
    lanes = PACKED.encode_packed(words)
    assert lanes.shape == (257, 2) and lanes.dtype == np.uint64
    assert np.array_equal(unpack_codewords(lanes), ORACLE.encode_batch(words))
    # Lane 1 only ever uses its low byte (7 Hamming bits + overall parity).
    assert int(lanes[:, 1].max()) < 256


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
        for code in (PACKED, ORACLE):
            with pytest.raises(ConfigurationError):
                code.encode_batch(bits)
            with pytest.raises(ConfigurationError):
                code.encode_packed(bits)

class TestEmptyBatches:
    """Regression: N=0 batches used to trip shape/validation errors."""

    @pytest.mark.parametrize("code", [PACKED, ORACLE], ids=["packed", "oracle"])
    def test_empty_encode(self, code):
        assert code.encode_batch(np.zeros(0, dtype=np.uint64)).shape == (0, 72)
        assert code.encode_batch([]).shape == (0, 72)
        lanes = code.encode_packed(np.zeros(0, dtype=np.uint64))
        assert lanes.shape == (0, 2) and lanes.dtype == np.uint64

    @pytest.mark.parametrize("code", [PACKED, ORACLE], ids=["packed", "oracle"])
    def test_empty_decode(self, code):
        for block in (
            np.zeros((0, 72), dtype=np.uint8),
            np.zeros((0, 2), dtype=np.uint64),
        ):
            result = code.decode_batch(block)
            assert isinstance(result, BatchDecodeResult)
            assert len(result) == 0
            assert result.error_codes.shape == (0,)
            assert result.corrected_bits.shape == (0,)
            assert result.data_words.shape == (0,)
            assert result.data_bits.shape == (0, 64)
            assert result.counts()[ErrorClass.NO_ERROR] == 0


class TestLazyBatchDecodeResult:
    def test_words_view_materialises_from_bits(self):
        bits = np.zeros((2, 64), dtype=np.uint8)
        bits[0, 0] = 1
        bits[1, 63] = 1
        result = BatchDecodeResult(
            data_bits=bits,
            error_codes=np.zeros(2, dtype=np.uint8),
            corrected_bits=np.full(2, -1, dtype=np.int64),
        )
        assert result.data_words.tolist() == [1, 2 ** 63]

    def test_bits_view_materialises_from_words(self):
        result = BatchDecodeResult(
            data_words=np.array([5], dtype=np.uint64),
            error_codes=np.zeros(1, dtype=np.uint8),
            corrected_bits=np.full(1, -1, dtype=np.int64),
        )
        assert result.data_bits[0, :3].tolist() == [1, 0, 1]
        assert result.result(0).data[:3].tolist() == [1, 0, 1]

    def test_requires_some_data_representation(self):
        with pytest.raises(ConfigurationError):
            BatchDecodeResult(
                error_codes=np.zeros(1, dtype=np.uint8),
                corrected_bits=np.full(1, -1, dtype=np.int64),
            )


# --------------------------------------------------------------------------
# Streamed cell array
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


class TestBlockStreaming:
    def test_results_invariant_to_block_size(self):
        """Streaming is exact: any block_words gives bit-identical results."""
        outputs = []
        for block_words in (7, 600, 65536):
            sim = CellArraySimulator(tiny_config(block_words=block_words))
            n = 1500
            words = np.arange(n)
            sim.write_batch(words, np.full(n, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
            sim.idle(600.0)
            sweep = sim.read_batch(words, workload="wl")
            outputs.append(
                (
                    sweep.decode.error_codes,
                    sweep.decode.corrected_bits,
                    sweep.decode.data_words,
                    sim.codewords[:n].copy(),
                    [(r.location, r.error_class) for r in sim.error_log],
                )
            )
        for other in outputs[1:]:
            for got, want in zip(other[:4], outputs[0][:4]):
                assert np.array_equal(got, want)
            assert other[4] == outputs[0][4]
        # The sweep really exercised multiple blocks and produced errors.
        assert (outputs[0][0] != 0).any()

    def test_index_addressing_matches_cell_locations(self):
        """Word-index batches behave exactly like CellLocation batches."""
        sim_idx = CellArraySimulator(tiny_config(block_words=400))
        sim_loc = CellArraySimulator(tiny_config(block_words=400))
        n = 1000
        values = np.arange(n, dtype=np.uint64) | np.uint64(0xFF00FF00FF00FF00)
        locations = [sim_loc.geometry.cell_from_word_index(i) for i in range(n)]

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

    def test_invalid_block_words_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(block_words=0)


class TestBatchReadLocations:
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
        as_cells = [sim.geometry.cell_from_word_index(int(word)) for word in errored]
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


class TestMemoryBudget:
    def test_full_scale_geometry_rejected_by_budget(self):
        with pytest.raises(ConfigurationError):
            CellArraySimulator(CellArrayConfig(geometry=DramGeometry()))

    def test_tiny_budget_rejects_small_geometry(self):
        with pytest.raises(ConfigurationError):
            CellArraySimulator(tiny_config(memory_budget_bytes=1024))

    def test_budget_can_be_raised(self):
        sim = CellArraySimulator(
            tiny_config(memory_budget_bytes=64 * 1024 ** 2)
        )
        sim.write_batch(np.arange(2), np.arange(2, dtype=np.uint64))
        assert sim.read_batch(np.arange(2)).counts()[ErrorClass.NO_ERROR] == 2


# --------------------------------------------------------------------------
# Million-word stress (slow)
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_million_word_array_wer_and_memory_budget():
    """A 1,048,576-word (75.5M-cell) array: WER inside the closed-form
    tolerance and peak temporary allocation bounded by the block budget.

    With ``true_cell_fraction=0.5`` every cell flips visibly with the same
    probability ``p = 0.5 * (0.99 * F(e) + 0.01 * F(10 e))`` regardless of
    the stored pattern (``F`` the retention-failure CDF at exposure ``e``,
    the VRT term an order-of-magnitude retention collapse), so the
    corrected-word rate is bracketed by exact binomials:
    ``B(1) <= E[CE-WER] <= B(1) + P(k >= 3)`` — single flips are always
    corrected, even flip counts are UEs, odd counts >= 3 are at worst
    miscorrected into the CE tally.
    """
    geometry = DramGeometry(
        num_dimms=1,
        ranks_per_dimm=1,
        banks_per_rank=1,
        rows_per_bank=1024,
        columns_per_row=1024,
    )
    n_words = geometry.total_words
    assert n_words == 1_048_576
    assert n_words * units.CODEWORD_BITS >= 72_000_000

    block_words = 65536
    config = CellArrayConfig(
        geometry=geometry,
        trefp_s=2.283,
        temperature_c=70.0,
        interference_strength=0.0,
        true_cell_fraction=0.5,
        calibration=weak_calibration(log_median=7.0, log_sigma=1.3),
        seed=2019,
        block_words=block_words,
    )
    sim = CellArraySimulator(config)

    rng = np.random.default_rng(7)
    values = rng.integers(0, 2 ** 64, size=n_words, dtype=np.uint64)
    words = np.arange(n_words)
    idle_s = 600.0

    tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    sim.write_batch(words, values)
    sim.idle(idle_s)
    sweep = sim.read_batch(words, workload="stress")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # -- memory: streaming keeps temporaries proportional to block_words,
    # far under the ~604 MB a single all-cell float64 retention slab
    # (n_words * 72 * 8 bytes) would cost, even counting the per-word
    # result columns and the value/index inputs.
    peak_extra = peak - before
    unstreamed_slab = n_words * units.CODEWORD_BITS * 8
    assert peak_extra < unstreamed_slab / 3
    per_block_budget = block_words * units.CODEWORD_BITS * 8 * 4  # 151 MB
    result_columns = n_words * (8 + 8 + 1 + 8)                    # ~26 MB
    assert peak_extra < per_block_budget + result_columns

    # -- WER: measured corrected-word rate inside the closed-form band.
    exposure = min(idle_s, config.trefp_s)
    cal = config.calibration.retention
    p_leak = 0.99 * bit_failure_probability_grid(
        exposure, config.temperature_c, config.vdd_v, calibration=cal
    ) + 0.01 * bit_failure_probability_grid(
        10.0 * exposure, config.temperature_c, config.vdd_v, calibration=cal
    )
    p = 0.5 * p_leak
    bits = units.CODEWORD_BITS
    b0 = (1.0 - p) ** bits
    b1 = bits * p * (1.0 - p) ** (bits - 1)
    b2 = bits * (bits - 1) / 2.0 * p * p * (1.0 - p) ** (bits - 2)
    sigma = np.sqrt(b1 * (1.0 - b1) / n_words)

    measured = sim.measured_wer(n_words)
    assert b1 - 6.0 * sigma <= measured <= b1 + (1.0 - b0 - b1 - b2) + 6.0 * sigma

    # The sweep really produced a dense error population, and the decode
    # classification is consistent with the log-based WER.
    counts = sweep.counts()
    assert counts[ErrorClass.CORRECTED] > 10_000
    assert measured == pytest.approx(counts[ErrorClass.CORRECTED] / n_words)
