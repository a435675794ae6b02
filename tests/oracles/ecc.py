"""The (72, 64) SECDED codec: real syndrome decoding for the cell array.

The platform protects every 64-bit word with 8 check bits (a 72,64
extended Hamming code).  The library classifies an error only by its
bit count (Table I, :func:`repro.dram.ecc.classify_bit_errors`); this
codec makes that classification emerge from syndrome decoding instead,
so the cell-array cross-check in :mod:`tests.oracles.cells` decodes real
bit flips.  ``tests/test_dram_ecc.py`` pins it against an independent
per-bit decoder.

Lane layout
-----------
An ``(N, 72)`` codeword block packs into ``(N, 2)`` uint64 *lanes*:

* lane 0 holds codeword bits 0..63 LSB-first (bit ``c`` of the codeword
  is bit ``c`` of lane 0), i.e. Hamming positions 1..64;
* lane 1 holds codeword bits 64..71 in its low byte: bits 0..6 are
  Hamming positions 65..71 and bit 7 is the overall parity bit
  (codeword index 71).  Bits 8..63 of lane 1 are always zero.

Byte order within a lane is little-endian (``<u8``), so the lanes are
exactly ``np.packbits(codewords, axis=1, bitorder="little")`` zero-padded
to 16 bytes per row.

Syndrome bit ``b`` is the XOR of all codeword bits whose 1-indexed
Hamming position has bit ``b`` set, so with one precomputed 72-bit
column mask per syndrome bit the whole syndrome reduces to
``popcount(lane & mask) & 1`` per lane.  Encoding scatters the 64 data
bits into their Hamming positions with six constant shift-and-mask runs
(the data positions form six contiguous runs between the power-of-two
parity positions), computes each parity bit as
``popcount(word & coverage_mask) & 1``, and decoding gathers the data
word back with the inverse shifts.  The scalar
:meth:`SecdedCode.encode` / :meth:`SecdedCode.decode` calls are
one-element batches.

:func:`roundtrip_with_errors` encodes a word, flips the given codeword
positions and decodes it again through the scalar API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import units
from repro.dram.ecc import ErrorClass
from repro.errors import ConfigurationError

#: Stable numeric codes used by the batch decoder; index into this tuple
#: to recover the enum (``ERROR_CLASS_ORDER[code]``).
ERROR_CLASS_ORDER: Tuple[ErrorClass, ...] = (
    ErrorClass.NO_ERROR,
    ErrorClass.CORRECTED,
    ErrorClass.UNCORRECTABLE,
    ErrorClass.SILENT,
)
ERROR_CLASS_CODES: Dict[ErrorClass, int] = {
    cls: code for code, cls in enumerate(ERROR_CLASS_ORDER)
}

_WORD_SHIFTS = np.arange(units.WORD_BITS, dtype=np.uint64)
#: bytes per packed codeword row: 9 payload bytes zero-padded to 2 lanes
_LANE_BYTES = 16
_CODEWORD_BYTES = (units.CODEWORD_BITS + 7) // 8
_popcount = np.bitwise_count


def _coerce_words(words: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """Validate and return data words as a 1-D uint64 array."""
    try:
        src = np.asarray(words)
        if src.ndim == 1 and src.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if np.issubdtype(src.dtype, np.floating):
            raise TypeError("floating-point data words")
        # Casting a signed array to uint64 would wrap negatives silently.
        if np.issubdtype(src.dtype, np.signedinteger) and src.size and int(src.min()) < 0:
            raise OverflowError("negative data word")
        arr = src if src.dtype == np.uint64 else src.astype(np.uint64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise ConfigurationError(
            "data words must be 64-bit unsigned integers"
        ) from exc
    if arr.ndim != 1:
        raise ConfigurationError(f"expected a 1-D array of words, got shape {arr.shape}")
    return arr


def words_to_bits(words: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """Unpack an ``(N,)`` array of 64-bit words into ``(N, 64)`` LSB-first bits."""
    arr = _coerce_words(words)
    return ((arr[:, None] >> _WORD_SHIFTS[None, :]) & np.uint64(1)).astype(np.uint8)


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack ``(N, 64)`` LSB-first bit rows into an ``(N,)`` uint64 array."""
    src = np.asarray(bits)
    if src.ndim != 2 or src.shape[1] != units.WORD_BITS:
        raise ConfigurationError(
            f"expected an (N, {units.WORD_BITS}) bit array, got shape {src.shape}"
        )
    # Check values before the uint64 cast: a stray -1 or 2 would otherwise
    # wrap into a garbage word with no error.
    if np.any((src != 0) & (src != 1)):
        raise ConfigurationError("bit array entries must be 0 or 1")
    arr = src.astype(np.uint64)
    # Each column contributes a distinct power of two, so the sum is exact.
    return (arr << _WORD_SHIFTS[None, :]).sum(axis=1, dtype=np.uint64)


def _as_data_words(data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """Accept either ``(N,)`` uint64 words or an ``(N, 64)`` bit matrix."""
    arr = np.asarray(data)
    if arr.ndim == 2:
        return bits_to_words(arr)
    return _coerce_words(arr)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(N, 72)`` bit-plane into ``(N, 2)`` uint64 lanes.

    Nonzero entries count as 1 (``np.packbits`` semantics).
    """
    data = np.ascontiguousarray(bits, dtype=np.uint8)
    if data.ndim != 2 or data.shape[1] != units.CODEWORD_BITS:
        raise ConfigurationError(
            f"expected an (N, {units.CODEWORD_BITS}) bit array, got shape {data.shape}"
        )
    payload = np.packbits(data, axis=1, bitorder="little")
    lanes = np.zeros((data.shape[0], _LANE_BYTES), dtype=np.uint8)
    lanes[:, :_CODEWORD_BYTES] = payload
    return lanes.view("<u8")


def unpack_codewords(lanes: np.ndarray) -> np.ndarray:
    """Unpack ``(N, 2)`` uint64 lanes back into an ``(N, 72)`` uint8 block."""
    arr = np.asarray(lanes)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype != np.uint64:
        raise ConfigurationError(
            "packed codewords must be an (N, 2) uint64 array, got shape "
            f"{arr.shape} dtype {arr.dtype}"
        )
    as_bytes = np.ascontiguousarray(arr.astype("<u8", copy=False)).view(np.uint8)
    return np.unpackbits(
        as_bytes, axis=1, count=units.CODEWORD_BITS, bitorder="little"
    )


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword."""

    data: np.ndarray                 #: the 64 decoded data bits
    error_class: ErrorClass
    corrected_bit: int = -1          #: codeword position corrected, -1 if none


class BatchDecodeResult:
    """Result of decoding ``N`` codewords at once.

    ``error_codes`` holds one entry of :data:`ERROR_CLASS_CODES` per
    codeword; :meth:`result` rehydrates the scalar view of one codeword.
    The decoded data is kept as ``(N,)`` uint64 words, and the ``(N, 64)``
    bit matrix is unpacked on first access.
    """

    __slots__ = ("error_codes", "corrected_bits", "data_words", "_data_bits")

    def __init__(
        self,
        *,
        data_words: np.ndarray,
        error_codes: np.ndarray,
        corrected_bits: np.ndarray,
    ) -> None:
        #: (N,) decoded data words
        self.data_words = data_words
        #: (N,) uint8 codes into ERROR_CLASS_ORDER
        self.error_codes = error_codes
        #: (N,) corrected codeword position, -1 if none
        self.corrected_bits = corrected_bits
        self._data_bits: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.error_codes.shape[0])

    @property
    def data_bits(self) -> np.ndarray:
        """The decoded data as an ``(N, 64)`` LSB-first bit matrix."""
        if self._data_bits is None:
            self._data_bits = words_to_bits(self.data_words)
        return self._data_bits

    def counts(self) -> Dict[ErrorClass, int]:
        """Number of codewords per error class."""
        histogram = np.bincount(self.error_codes, minlength=len(ERROR_CLASS_ORDER))
        return {cls: int(histogram[code]) for code, cls in enumerate(ERROR_CLASS_ORDER)}

    def result(self, index: int) -> DecodeResult:
        """The scalar :class:`DecodeResult` view of one decoded codeword."""
        return DecodeResult(
            data=words_to_bits(self.data_words[index:index + 1])[0],
            error_class=ERROR_CLASS_ORDER[int(self.error_codes[index])],
            corrected_bit=int(self.corrected_bits[index]),
        )


class SecdedCode:
    """A (72, 64) extended Hamming code on uint64 lanes.

    Layout: 71 Hamming positions numbered 1..71 where power-of-two
    positions hold check bits and the rest hold the 64 data bits, plus an
    overall parity bit appended at index 71 of the codeword array.
    """

    data_bits = units.WORD_BITS
    codeword_bits = units.CODEWORD_BITS

    def __init__(self) -> None:
        parity_positions = [1, 2, 4, 8, 16, 32, 64]
        data_positions = [p for p in range(1, 72) if p not in parity_positions]
        mask64 = (1 << 64) - 1
        # Per-syndrome-bit column masks over the 71 Hamming bits, split into
        # the two lanes (lane 1 mask covers only its low 7 bits, so the
        # overall parity bit at lane-1 bit 7 never leaks into a syndrome).
        syn_lo, syn_hi = [], []
        for b in range(7):
            full = sum(1 << (pos - 1) for pos in range(1, 72) if (pos >> b) & 1)
            syn_lo.append(full & mask64)
            syn_hi.append(full >> 64)
        self._syn_mask_lo = np.array(syn_lo, dtype=np.uint64)
        self._syn_mask_hi = np.array(syn_hi, dtype=np.uint64)

        # Per-parity-bit coverage masks in data-word bit space.
        self._coverage_masks = np.array([
            sum(1 << i for i, data_pos in enumerate(data_positions) if data_pos & parity_pos)
            for parity_pos in parity_positions
        ], dtype=np.uint64)
        # Parity bits live at codeword indices 0,1,3,7,15,31,63 — all lane 0.
        self._parity_lane_shifts = np.array(parity_positions, dtype=np.uint64) - np.uint64(1)

        # Scatter/gather runs: the data positions form contiguous runs
        # between parity positions, so data bit i maps to codeword bit
        # i + offset with a constant offset per run.  Runs whose codeword
        # bits land in lane 0 become (data-space mask, shift) pairs; the
        # single lane-1 run (data bits 57..63 -> codeword bits 64..70)
        # gets its own right-shift.
        offsets = [pos - 1 - i for i, pos in enumerate(data_positions)]
        runs: List[Tuple[int, int]] = []        # (data-space mask, offset)
        start = 0
        while start < self.data_bits:
            end = start
            while end < self.data_bits and offsets[end] == offsets[start]:
                end += 1
            runs.append((((1 << (end - start)) - 1) << start, offsets[start]))
            start = end
        self._lo_runs = [
            (np.uint64(mask), np.uint64(offset))
            for mask, offset in runs
            if (mask.bit_length() - 1) + offset < 64
        ]
        (hi_mask, hi_offset), = [
            (mask, offset)
            for mask, offset in runs
            if (mask.bit_length() - 1) + offset >= 64
        ]
        # Lowest data bit of the lane-1 run; its codeword bit is 64 + 0.
        self._hi_run_start = np.uint64(64 - hi_offset)
        self._hi_run_mask = np.uint64(hi_mask)
        self._lane1_hamming_mask = np.uint64((1 << 7) - 1)

    # -- lane kernels ------------------------------------------------------
    def _encode_words_to_lanes(self, words: np.ndarray) -> np.ndarray:
        """Encode validated ``(N,)`` uint64 words into ``(N, 2)`` lanes."""
        lane0 = np.zeros(words.shape, dtype=np.uint64)
        for mask, shift in self._lo_runs:
            lane0 |= (words & mask) << shift
        lane1 = (words >> self._hi_run_start) & self._lane1_hamming_mask
        for j in range(7):
            parity = _popcount(words & self._coverage_masks[j]) & 1
            lane0 |= parity.astype(np.uint64) << self._parity_lane_shifts[j]
        overall = (_popcount(lane0) + _popcount(lane1)) & 1
        lane1 = lane1 | (overall.astype(np.uint64) << np.uint64(7))
        return np.stack([lane0, lane1], axis=1)

    def _decode_lanes(self, lanes: np.ndarray) -> BatchDecodeResult:
        """Decode ``(N, 2)`` uint64 lanes and classify each word (Table I)."""
        lane0 = lanes[:, 0]
        lane1 = lanes[:, 1] & self._lane1_hamming_mask
        received = ((lanes[:, 1] >> np.uint64(7)) & np.uint64(1)).astype(np.int64)

        syndrome = np.zeros(lane0.shape, dtype=np.int64)
        for b in range(7):
            ones = _popcount(lane0 & self._syn_mask_lo[b]) + _popcount(
                lane1 & self._syn_mask_hi[b]
            )
            syndrome |= (ones & 1).astype(np.int64) << b
        overall = ((_popcount(lane0) + _popcount(lane1)) & 1).astype(np.int64)
        parity_ok = overall == received

        zero_syndrome = syndrome == 0
        codes = np.empty(syndrome.shape[0], dtype=np.uint8)
        corrected = np.full(syndrome.shape[0], -1, dtype=np.int64)
        # syndrome == 0, parity consistent: clean word.
        codes[zero_syndrome & parity_ok] = ERROR_CLASS_CODES[ErrorClass.NO_ERROR]
        # syndrome == 0, parity violated: the overall parity bit itself flipped.
        parity_flip = zero_syndrome & ~parity_ok
        codes[parity_flip] = ERROR_CLASS_CODES[ErrorClass.CORRECTED]
        corrected[parity_flip] = 71
        # syndrome != 0, parity violated: odd error count, assume one and
        # correct it; a syndrome outside 1..71 points outside the code
        # (miscorrection risk -> silent).
        odd = ~zero_syndrome & ~parity_ok
        in_code = odd & (syndrome <= 71)
        codes[in_code] = ERROR_CLASS_CODES[ErrorClass.CORRECTED]
        corrected[in_code] = syndrome[in_code] - 1
        codes[odd & ~in_code] = ERROR_CLASS_CODES[ErrorClass.SILENT]
        # syndrome != 0, parity consistent: an even (>=2) error count.
        codes[~zero_syndrome & parity_ok] = ERROR_CLASS_CODES[ErrorClass.UNCORRECTABLE]

        if in_code.any():
            lane0 = lane0.copy()
            lane1 = lane1.copy()
            flip_lo = in_code & (syndrome <= 64)
            flip_hi = in_code & (syndrome > 64)
            lane0[flip_lo] ^= np.uint64(1) << (syndrome[flip_lo] - 1).astype(np.uint64)
            lane1[flip_hi] ^= np.uint64(1) << (syndrome[flip_hi] - 65).astype(np.uint64)

        words = (lane1 << self._hi_run_start) & self._hi_run_mask
        for mask, shift in self._lo_runs:
            words |= (lane0 >> shift) & mask
        return BatchDecodeResult(
            data_words=words, error_codes=codes, corrected_bits=corrected
        )

    # -- batch API ---------------------------------------------------------
    def encode_batch(self, data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        """Encode a batch of words into an ``(N, 72)`` codeword matrix.

        ``data`` is either an ``(N,)`` array of 64-bit unsigned integers
        or an already unpacked ``(N, 64)`` LSB-first bit matrix.
        """
        return unpack_codewords(self.encode_packed(data))

    def encode_packed(self, data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        """Encode a batch of words directly into ``(N, 2)`` uint64 lanes."""
        return self._encode_words_to_lanes(_as_data_words(data))

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        """Decode an ``(N, 72)`` block or ``(N, 2)`` uint64 lanes."""
        block = np.asarray(codewords)
        if block.ndim == 2 and block.shape[1] == 2 and block.dtype == np.uint64:
            return self._decode_lanes(block)
        block = np.asarray(block, dtype=np.uint8)
        if block.ndim != 2 or block.shape[1] != self.codeword_bits:
            raise ConfigurationError(
                f"codeword block must have shape (N, {self.codeword_bits}), "
                f"got shape {block.shape}"
            )
        return self._decode_lanes(pack_bits(block))

    # -- scalar API (one-element batches) ------------------------------------
    def encode(self, data: int) -> np.ndarray:
        """Encode a 64-bit integer into a 72-bit codeword (numpy uint8 array)."""
        if not isinstance(data, (int, np.integer)) or isinstance(data, bool):
            raise ConfigurationError("data must be a 64-bit unsigned integer")
        if not 0 <= data < (1 << self.data_bits):
            raise ConfigurationError("data must be a 64-bit unsigned integer")
        return self.encode_batch(np.array([data], dtype=np.uint64))[0]

    def decode(self, codeword: np.ndarray) -> DecodeResult:
        """Decode a possibly corrupted codeword and classify the outcome."""
        word = np.asarray(codeword, dtype=np.uint8)
        if word.shape != (self.codeword_bits,):
            raise ConfigurationError(
                f"codeword must have {self.codeword_bits} bits, got shape {word.shape}"
            )
        return self.decode_batch(word[None, :]).result(0)


def roundtrip_with_errors(
    code: SecdedCode, data: int, flip_positions: Iterable[int]
) -> Tuple[int, ErrorClass]:
    """Encode ``data``, flip the given codeword bit positions, decode.

    Returns ``(decoded data, error class)``.
    """
    codeword = code.encode(data)
    for position in flip_positions:
        codeword[position] ^= 1
    result = code.decode(codeword)
    return int(bits_to_words(result.data[None, :])[0]), result.error_class
