"""Byte-per-bit SECDED oracle for the packed uint64-lane codec.

:class:`UnpackedSecdedCode` is the original ``(N, 72)`` uint8 engine of
:class:`~repro.dram.ecc.SecdedCode`: encoding scatters the data bits
into their Hamming positions and computes the parity bits with an
integer matmul against the coverage matrix, and decoding computes
syndromes as ``(hamming @ S) & 1``.  It shares only the Table-I
classifier with the library, so ``tests/test_ecc_packed.py`` and the
``secded_packed_decode`` floor in ``benchmarks/test_ecc_throughput.py``
check the XOR-popcount kernels against an independent computation.

:func:`roundtrip_with_errors` encodes a word, flips the given codeword
positions and decodes it again through the library's scalar API.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from repro.dram.ecc import BatchDecodeResult, ErrorClass, SecdedCode, unpack_codewords
from repro.errors import ConfigurationError


class UnpackedSecdedCode(SecdedCode):
    """The (72, 64) code with the byte-per-bit batch engine."""

    def __init__(self) -> None:
        super().__init__()
        # GF(2) structure, precomputed once so batch encode/decode reduce to
        # integer matmuls followed by `& 1`:
        #   * syndrome matrix S (71 x 7): S[c, b] = bit b of Hamming position
        #     c+1, so syndrome_bits = hamming_bits @ S (mod 2) is the XOR of
        #     the 1-indexed positions of all set bits;
        #   * coverage matrix C (64 x 7): C[i, j] = 1 when data position i is
        #     covered by parity position 2^j, so parity_bits = data @ C (mod 2).
        positions = np.arange(1, 72)
        bit_index = np.arange(7)
        self._syndrome_matrix = (
            (positions[:, None] >> bit_index[None, :]) & 1
        ).astype(np.int64)
        self._coverage_matrix = (
            (self._data_positions[:, None] & self._parity_positions[None, :]) != 0
        ).astype(np.int64)
        self._syndrome_weights = (1 << bit_index).astype(np.int64)

    def encode_batch(self, data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        bits = self._as_data_bits(data)
        n = bits.shape[0]
        hamming = np.zeros((n, 71), dtype=np.uint8)
        hamming[:, self._data_positions - 1] = bits
        parity = (bits.astype(np.int64) @ self._coverage_matrix) & 1
        hamming[:, self._parity_positions - 1] = parity.astype(np.uint8)
        codewords = np.empty((n, self.codeword_bits), dtype=np.uint8)
        codewords[:, :71] = hamming
        codewords[:, 71] = (hamming.sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)
        return codewords

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        block = np.asarray(codewords)
        if block.ndim == 2 and block.shape[1] == 2 and block.dtype == np.uint64:
            block = unpack_codewords(block)
        block = np.asarray(block, dtype=np.uint8)
        if block.ndim != 2 or block.shape[1] != self.codeword_bits:
            raise ConfigurationError(
                f"codeword block must have shape (N, {self.codeword_bits}), "
                f"got shape {block.shape}"
            )
        hamming = block[:, :71].astype(np.int64)
        overall_received = block[:, 71].astype(np.int64)

        syndrome = ((hamming @ self._syndrome_matrix) & 1) @ self._syndrome_weights
        overall_computed = hamming.sum(axis=1) & 1
        parity_ok = overall_computed == overall_received

        codes, corrected, in_code = self._classify(syndrome, parity_ok)

        hamming_out = block[:, :71].copy()
        flip_rows = np.flatnonzero(in_code)
        if flip_rows.size:
            hamming_out[flip_rows, syndrome[flip_rows] - 1] ^= 1

        data_bits = hamming_out[:, self._data_positions - 1]
        return BatchDecodeResult(
            data_bits=data_bits, error_codes=codes, corrected_bits=corrected
        )


def roundtrip_with_errors(
    code: SecdedCode, data: int, flip_positions: Iterable[int]
) -> Tuple[int, ErrorClass]:
    """Encode ``data``, flip the given codeword bit positions, decode.

    Returns ``(decoded data, error class)``.
    """
    codeword = code.encode(data)
    for position in flip_positions:
        codeword[position] ^= 1
    return code.decode_to_int(codeword)
