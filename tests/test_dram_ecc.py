"""Tests for the SECDED ECC code (Table I behaviour)."""

import numpy as np
import pytest

from repro.dram.ecc import (
    ERROR_CLASS_ORDER,
    DecodeResult,
    ErrorClass,
    SecdedCode,
    bits_to_words,
    classify_bit_errors,
    words_to_bits,
)
from repro.errors import ConfigurationError

from tests.oracles.ecc import roundtrip_with_errors


@pytest.fixture(scope="module")
def code():
    return SecdedCode()


def reference_decode(codeword):
    """Independent per-bit SECDED decoder (the pre-vectorization algorithm).

    Kept here so the batch engine is checked against a second
    implementation instead of against itself.
    """
    parity_positions = (1, 2, 4, 8, 16, 32, 64)
    data_positions = [p for p in range(1, 72) if p not in parity_positions]
    hamming = [int(b) for b in codeword[:71]]
    overall_received = int(codeword[71])

    syndrome = 0
    for position, bit in enumerate(hamming, start=1):
        if bit:
            syndrome ^= position
    parity_ok = (sum(hamming) % 2) == overall_received

    corrected_bit = -1
    if syndrome == 0 and parity_ok:
        error_class = ErrorClass.NO_ERROR
    elif syndrome == 0 and not parity_ok:
        error_class = ErrorClass.CORRECTED
        corrected_bit = 71
    elif syndrome != 0 and not parity_ok:
        error_class = ErrorClass.CORRECTED
        if 1 <= syndrome <= 71:
            hamming[syndrome - 1] ^= 1
            corrected_bit = syndrome - 1
        else:
            error_class = ErrorClass.SILENT
    else:
        error_class = ErrorClass.UNCORRECTABLE

    data = [hamming[p - 1] for p in data_positions]
    return data, error_class, corrected_bit


class TestClassification:
    def test_table1_mapping(self):
        assert classify_bit_errors(0) is ErrorClass.NO_ERROR
        assert classify_bit_errors(1) is ErrorClass.CORRECTED
        assert classify_bit_errors(2) is ErrorClass.UNCORRECTABLE
        assert classify_bit_errors(3) is ErrorClass.SILENT
        assert classify_bit_errors(7) is ErrorClass.SILENT

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_bit_errors(-1)


class TestSecdedCode:
    def test_codeword_length_is_72(self, code):
        assert code.encode(0).shape == (72,)
        assert code.encode(2 ** 64 - 1).shape == (72,)

    def test_clean_round_trip(self, code):
        for data in (0, 1, 0xDEADBEEF, 2 ** 64 - 1, 0x0123456789ABCDEF):
            decoded, cls = roundtrip_with_errors(code, data, [])
            assert decoded == data
            assert cls is ErrorClass.NO_ERROR

    def test_single_bit_error_corrected_everywhere(self, code):
        data = 0xA5A5A5A5A5A5A5A5
        for position in range(72):
            decoded, cls = roundtrip_with_errors(code, data, [position])
            assert cls is ErrorClass.CORRECTED
            assert decoded == data, f"data corrupted after correcting bit {position}"

    def test_double_bit_error_detected(self, code):
        data = 0x0F0F0F0F0F0F0F0F
        rng = np.random.default_rng(5)
        for _ in range(50):
            positions = rng.choice(72, size=2, replace=False)
            _decoded, cls = roundtrip_with_errors(code, data, positions.tolist())
            assert cls is ErrorClass.UNCORRECTABLE

    def test_double_error_involving_parity_bit_still_detected(self, code):
        # One flip in the Hamming region plus the overall parity bit.
        _decoded, cls = roundtrip_with_errors(code, 0x1234, [3, 71])
        assert cls is ErrorClass.UNCORRECTABLE

    def test_triple_bit_error_is_not_reported_as_ue(self, code):
        # Odd-weight errors look like single errors to SECDED: they are either
        # (mis)corrected or silent, never flagged as UE - that is exactly why
        # the paper calls >2-bit corruption Silent Data Corruption.
        _decoded, cls = roundtrip_with_errors(code, 0xFFFF, [1, 9, 33])
        assert cls in (ErrorClass.CORRECTED, ErrorClass.SILENT)

    def test_invalid_data_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.encode(2 ** 64)
        with pytest.raises(ConfigurationError):
            code.encode(-1)
        with pytest.raises(ConfigurationError):
            code.encode(42.7)   # would silently truncate to 42 otherwise

    def test_invalid_codeword_shape_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.decode(np.zeros(71, dtype=np.uint8))

    def test_overlong_codeword_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.decode(np.zeros(73, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            code.decode_batch(np.zeros((2, 73), dtype=np.uint8))

    def test_decode_result_reports_corrected_position(self, code):
        codeword = code.encode(42)
        codeword[10] ^= 1
        result = code.decode(codeword)
        assert isinstance(result, DecodeResult)
        assert result.error_class is ErrorClass.CORRECTED
        assert result.corrected_bit == 10


class TestWordBitHelpers:
    def test_round_trip(self):
        words = np.array([0, 1, 2 ** 64 - 1, 0x0123456789ABCDEF], dtype=np.uint64)
        assert np.array_equal(bits_to_words(words_to_bits(words)), words)

    def test_lsb_first_layout(self):
        bits = words_to_bits(np.array([0b101], dtype=np.uint64))
        assert bits[0, 0] == 1 and bits[0, 1] == 0 and bits[0, 2] == 1

    def test_negative_words_rejected(self):
        with pytest.raises(ConfigurationError):
            words_to_bits([-1])
        with pytest.raises(ConfigurationError):
            words_to_bits(np.array([-1], dtype=np.int64))

    def test_oversized_words_rejected(self):
        with pytest.raises(ConfigurationError):
            words_to_bits([2 ** 64])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_to_words(np.zeros((2, 63), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            words_to_bits(np.zeros((2, 2), dtype=np.uint64))

    def test_non_bit_entries_rejected(self):
        bad = np.zeros((1, 64), dtype=np.int64)
        bad[0, 3] = -1
        with pytest.raises(ConfigurationError):
            bits_to_words(bad)
        bad[0, 3] = 2
        with pytest.raises(ConfigurationError):
            bits_to_words(bad)

    def test_float_words_rejected(self):
        with pytest.raises(ConfigurationError):
            words_to_bits(np.array([1.5]))


class TestBatchCodec:
    def test_batch_encode_matches_scalar(self, code):
        words = [0, 1, 0xDEADBEEF, 2 ** 64 - 1, 0xA5A5A5A5A5A5A5A5]
        batch = code.encode_batch(np.array(words, dtype=np.uint64))
        for row, word in enumerate(words):
            assert np.array_equal(batch[row], code.encode(word))

    def test_batch_encode_accepts_bit_matrix(self, code):
        words = np.array([7, 0xFFFF, 2 ** 63], dtype=np.uint64)
        assert np.array_equal(
            code.encode_batch(words), code.encode_batch(words_to_bits(words))
        )

    def test_batch_decode_matches_reference_across_error_classes(self, code):
        rng = np.random.default_rng(17)
        words = rng.integers(0, 2 ** 63, size=400, dtype=np.uint64)
        codewords = code.encode_batch(words)
        # 0/1/2/3-bit injected errors, every range including the parity bit.
        for row in range(400):
            flips = rng.choice(72, size=row % 4, replace=False)
            codewords[row, flips] ^= 1
        batch = code.decode_batch(codewords)
        seen = set()
        for row in range(400):
            data, error_class, corrected = reference_decode(codewords[row])
            assert ERROR_CLASS_ORDER[int(batch.error_codes[row])] is error_class
            assert int(batch.corrected_bits[row]) == corrected
            assert batch.data_bits[row].tolist() == data
            seen.add(error_class)
        assert ErrorClass.NO_ERROR in seen and ErrorClass.CORRECTED in seen
        assert ErrorClass.UNCORRECTABLE in seen

    def test_overall_parity_bit_flip_is_corrected_in_batch(self, code):
        codeword = code.encode(42)
        codeword[71] ^= 1
        batch = code.decode_batch(codeword[None, :])
        assert ERROR_CLASS_ORDER[int(batch.error_codes[0])] is ErrorClass.CORRECTED
        assert int(batch.corrected_bits[0]) == 71
        assert int(batch.data_words[0]) == 42

    def test_batch_counts_and_classes(self, code):
        codewords = code.encode_batch(np.array([1, 2, 3], dtype=np.uint64))
        codewords[1, 5] ^= 1                      # single-bit: corrected
        codewords[2, 5] ^= 1
        codewords[2, 6] ^= 1                      # double-bit: uncorrectable
        batch = code.decode_batch(codewords)
        counts = batch.counts()
        assert counts[ErrorClass.NO_ERROR] == 1
        assert counts[ErrorClass.CORRECTED] == 1
        assert counts[ErrorClass.UNCORRECTABLE] == 1
        assert counts[ErrorClass.SILENT] == 0
        assert ERROR_CLASS_ORDER[int(batch.error_codes[0])] is ErrorClass.NO_ERROR
        assert ERROR_CLASS_ORDER[int(batch.error_codes[2])] is ErrorClass.UNCORRECTABLE
        assert len(batch) == 3

    def test_batch_result_view_matches_scalar_decode(self, code):
        codeword = code.encode(99)
        codeword[3] ^= 1
        scalar = code.decode(codeword)
        view = code.decode_batch(codeword[None, :]).result(0)
        assert view.error_class is scalar.error_class
        assert view.corrected_bit == scalar.corrected_bit
        assert np.array_equal(view.data, scalar.data)

    def test_invalid_block_shape_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.decode_batch(np.zeros((4, 71), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            code.decode_batch(np.zeros(72, dtype=np.uint8))

    def test_invalid_batch_data_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.encode_batch([1, 2 ** 64])
        with pytest.raises(ConfigurationError):
            code.encode_batch([-1])
        with pytest.raises(ConfigurationError):
            code.encode_batch(np.full((2, 64), 2, dtype=np.uint8))
