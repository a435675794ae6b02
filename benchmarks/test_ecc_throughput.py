"""Batch SECDED engine: scalar equivalence and throughput.

The (72,64) SECDED codec is the hot path of every cell-array-driven
experiment.  These benchmarks pin three properties of the batch engine:

* ``decode_batch`` classifies and corrects *exactly* like the scalar
  decoder — over 10k random codewords with injected 0/1/2-bit errors
  (including the overall parity bit) and a multi-bit tail;
* the batch pipeline is at least 20x faster than looping the scalar API
  word by word, and the bit-packed uint64-lane decode is at least 3x
  faster again than the byte-per-bit oracle (``tests/oracles/ecc.py``)
  on the *same* corrupted block — with both paths proven bit-identical
  first;
* a million-word (72M-cell) streamed cell-array write/read sweep
  completes in seconds.
"""

import time

import numpy as np
import pytest

from repro.dram.cells import CellArrayConfig, CellArraySimulator
from repro.dram.calibration import DramCalibration, RetentionCalibration
from repro.dram.ecc import ERROR_CLASS_ORDER, SecdedCode, bits_to_words
from repro.dram.geometry import DramGeometry, small_geometry

from tests.oracles.ecc import UnpackedSecdedCode

pytestmark = pytest.mark.slow

NUM_WORDS = 10_000


@pytest.fixture(scope="module")
def code():
    return SecdedCode()


@pytest.fixture(scope="module")
def corrupted_block(code):
    """10k codewords with 0/1/2-bit injected errors plus a multi-bit tail."""
    rng = np.random.default_rng(2019)
    words = rng.integers(0, 1 << 63, size=NUM_WORDS, dtype=np.uint64) * 2 + (
        rng.integers(0, 2, size=NUM_WORDS, dtype=np.uint64)
    )
    codewords = code.encode_batch(words)
    # Error multiplicity per word: ~25% clean, ~25% single, ~25% double,
    # the rest 3..5 bits; flips may land anywhere, parity bit included.
    num_errors = rng.choice([0, 1, 2, 3, 4, 5], size=NUM_WORDS,
                            p=[0.25, 0.25, 0.25, 0.1, 0.1, 0.05])
    for row, count in enumerate(num_errors):
        if count:
            positions = rng.choice(72, size=count, replace=False)
            codewords[row, positions] ^= 1
    return words, codewords


def test_batch_decode_matches_scalar_exactly(code, corrupted_block, print_table):
    words, codewords = corrupted_block
    batch = code.decode_batch(codewords)

    mismatches = 0
    for row in range(NUM_WORDS):
        scalar = code.decode(codewords[row])
        if (
            scalar.error_class is not ERROR_CLASS_ORDER[int(batch.error_codes[row])]
            or scalar.corrected_bit != int(batch.corrected_bits[row])
            or not np.array_equal(scalar.data, batch.data_bits[row])
        ):
            mismatches += 1
    assert mismatches == 0

    counts = batch.counts()
    print_table("Batch vs scalar decode over 10k corrupted codewords",
                [(cls.value, count) for cls, count in counts.items()])
    # Sanity: every class is exercised by the injected error mix.
    assert all(count > 0 for count in counts.values())


def test_batch_encode_matches_scalar_exactly(code, corrupted_block):
    words, _codewords = corrupted_block
    batch = code.encode_batch(words)
    for row in range(0, NUM_WORDS, 97):    # sampled: scalar encode is the slow path
        assert np.array_equal(batch[row], code.encode(int(words[row])))
    # Clean decode must return the original words bit for bit.
    decoded = code.decode_batch(batch)
    assert np.array_equal(decoded.data_words, words)
    assert not decoded.error_codes.any()


def test_batch_throughput_at_least_20x_scalar(code, corrupted_block, bench_report):
    words, codewords = corrupted_block

    start = time.perf_counter()
    for row in range(NUM_WORDS):
        code.decode_to_int(codewords[row])
    scalar_s = time.perf_counter() - start

    batch_s = min(
        _timed(lambda: code.decode_batch(codewords).data_words) for _ in range(3)
    )
    speedup = bench_report.record(
        "secded_decode", floor=20.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="words", work_items=NUM_WORDS,
    )
    assert speedup >= 20.0


def test_packed_decode_at_least_3x_unpacked(corrupted_block, bench_report):
    """The uint64-lane kernel vs the byte-per-bit oracle on one block.

    Bit-identity comes first — the speedup claim is only meaningful if
    the packed path returns exactly the oracle's data words, error codes
    and corrected-bit indices on the same corrupted codewords.
    """
    _words, codewords = corrupted_block
    packed = SecdedCode()
    oracle = UnpackedSecdedCode()

    packed_result = packed.decode_batch(codewords)
    oracle_result = oracle.decode_batch(codewords)
    assert np.array_equal(packed_result.error_codes, oracle_result.error_codes)
    assert np.array_equal(packed_result.corrected_bits, oracle_result.corrected_bits)
    assert np.array_equal(packed_result.data_words, oracle_result.data_words)
    assert np.array_equal(packed_result.data_bits, oracle_result.data_bits)

    unpacked_s = min(
        _timed(lambda: oracle.decode_batch(codewords).data_words) for _ in range(5)
    )
    packed_s = min(
        _timed(lambda: packed.decode_batch(codewords).data_words) for _ in range(5)
    )
    speedup = bench_report.record(
        "secded_packed_decode", floor=3.0, scalar_s=unpacked_s, batch_s=packed_s,
        units_label="words", work_items=NUM_WORDS,
    )
    assert speedup >= 3.0


def test_cell_array_batch_sweep_is_fast(print_table):
    """End-to-end: a 10k-word write/idle/read cycle through the batch paths."""
    calibration = DramCalibration(
        retention=RetentionCalibration(log_median_retention_50c=3.0, log_sigma=1.3)
    )
    simulator = CellArraySimulator(CellArrayConfig(
        geometry=small_geometry(), trefp_s=2.283, temperature_c=70.0,
        calibration=calibration, seed=7,
    ))
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=(NUM_WORDS, 64), dtype=np.uint64).astype(np.uint8)
    values = bits_to_words(bits)
    locations = [simulator.geometry.cell_from_word_index(i) for i in range(NUM_WORDS)]

    start = time.perf_counter()
    simulator.write_batch(locations, values)
    simulator.idle(600.0)
    sweep = simulator.read_batch(locations, workload="throughput")
    elapsed = time.perf_counter() - start

    errors = sum(
        count for cls, count in sweep.counts().items() if cls.value != "none"
    )
    print_table("Cell-array batch sweep (10k words, weak cells, 70 C)", [
        ("wall time", f"{elapsed:.3f} s"),
        ("throughput", f"{2 * NUM_WORDS / elapsed:,.0f} ops/s"),
        ("ECC events", errors),
    ])
    assert errors > 0                      # weak cells at 70 C must leak
    assert elapsed < 5.0                   # scalar loops took minutes here


def test_million_word_cell_array_sweep(print_table):
    """A 1,048,576-word (75.5M-cell) write/idle/read sweep, streamed.

    The byte-per-bit engine could not even represent this array (the old
    hard cap rejected geometries over 50M cells); the packed lanes plus
    block streaming make it a seconds-scale operation.
    """
    geometry = DramGeometry(
        num_dimms=1, ranks_per_dimm=1, banks_per_rank=1,
        rows_per_bank=1024, columns_per_row=1024,
    )
    n_words = geometry.total_words
    assert n_words >= 1_000_000 and n_words * 72 >= 72_000_000
    simulator = CellArraySimulator(CellArrayConfig(
        geometry=geometry, trefp_s=2.283, temperature_c=70.0,
        calibration=DramCalibration(
            retention=RetentionCalibration(log_median_retention_50c=7.0,
                                           log_sigma=1.3)
        ),
        seed=7,
    ))
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2 ** 64, size=n_words, dtype=np.uint64)
    words = np.arange(n_words)

    start = time.perf_counter()
    simulator.write_batch(words, values)
    simulator.idle(600.0)
    sweep = simulator.read_batch(words, workload="million-word")
    elapsed = time.perf_counter() - start

    errors = sum(
        count for cls, count in sweep.counts().items() if cls.value != "none"
    )
    print_table("Million-word cell-array sweep (75.5M cells, 70 C)", [
        ("wall time", f"{elapsed:.3f} s"),
        ("throughput", f"{2 * n_words / elapsed:,.0f} ops/s"),
        ("ECC events", errors),
        ("measured WER", f"{simulator.measured_wer(n_words):.5f}"),
    ])
    assert errors > 0
    assert elapsed < 60.0                  # streamed packed path: seconds-scale


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
