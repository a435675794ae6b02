"""SECDED ECC (single-error-correct, double-error-detect) over 64-bit words.

The platform protects every 64-bit word with 8 check bits (a 72,64
extended Hamming code).  Errors are classified exactly as in Table I of
the paper:

* 1 corrupted bit   -> corrected            (CE)
* 2 corrupted bits  -> detected, uncorrected (UE)
* >2 corrupted bits -> may escape detection  (SDC)

The encoder/decoder below implements a real extended Hamming code so the
classification emerges from syndrome decoding rather than being assumed.

Packed codec layout
-------------------
The hot path is the bit-packed batch engine.  An ``(N, 72)`` codeword
block packs into ``(N, 2)`` uint64 *lanes*:

* lane 0 holds codeword bits 0..63 LSB-first (bit ``c`` of the codeword
  is bit ``c`` of lane 0), i.e. Hamming positions 1..64;
* lane 1 holds codeword bits 64..71 in its low byte: bits 0..6 are
  Hamming positions 65..71 and bit 7 is the overall parity bit
  (codeword index 71).  Bits 8..63 of lane 1 are always zero.

Byte order within a lane is little-endian (``<u8``), so the lanes are
exactly ``np.packbits(codewords, axis=1, bitorder="little")`` zero-padded
to 16 bytes per row.

Syndromes come from the XOR-popcount trick instead of a matmul: syndrome
bit ``b`` is the XOR of all codeword bits whose 1-indexed Hamming
position has bit ``b`` set, so with one precomputed 72-bit column mask
per syndrome bit the whole syndrome reduces to
``popcount(lane & mask) & 1`` per lane — 7 masked popcounts replace the
``(N, 71) @ (71, 7)`` int64 matmul, and the overall parity is one more
popcount.  Encoding scatters the 64 data bits into their Hamming
positions with six constant shift-and-mask runs (the data positions form
six contiguous runs between the power-of-two parity positions), computes
each parity bit as ``popcount(word & coverage_mask) & 1``, and decoding
gathers the data word back with the inverse shifts.

The byte-per-bit engine (GF(2) matmuls over ``(N, 72)`` uint8 blocks)
is the oracle in ``tests/oracles/ecc.py``.  Both share one classifier
(:meth:`SecdedCode._classify`) and are pinned bit-identical by
``tests/test_ecc_packed.py`` and the throughput benchmarks.
:meth:`SecdedCode.encode_batch` / :meth:`SecdedCode.decode_batch` keep
their ``(N, 72)`` uint8 signatures (``decode_batch`` additionally
accepts ``(N, 2)`` uint64 lanes directly), and the scalar
:meth:`SecdedCode.encode` / :meth:`SecdedCode.decode` API remains a thin
wrapper over one-element batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import units
from repro.errors import ConfigurationError


class ErrorClass(Enum):
    """Outcome of reading one ECC codeword."""

    NO_ERROR = "none"
    CORRECTED = "CE"
    UNCORRECTABLE = "UE"
    SILENT = "SDC"


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


def classify_bit_errors(num_corrupted_bits: int) -> ErrorClass:
    """Table I of the paper: classification by the number of corrupted bits."""
    if num_corrupted_bits < 0:
        raise ConfigurationError("num_corrupted_bits must be non-negative")
    if num_corrupted_bits == 0:
        return ErrorClass.NO_ERROR
    if num_corrupted_bits == 1:
        return ErrorClass.CORRECTED
    if num_corrupted_bits == 2:
        return ErrorClass.UNCORRECTABLE
    return ErrorClass.SILENT


_WORD_SHIFTS = np.arange(units.WORD_BITS, dtype=np.uint64)
#: bytes per packed codeword row: 9 payload bytes zero-padded to 2 lanes
_LANE_BYTES = 16
_CODEWORD_BYTES = (units.CODEWORD_BITS + 7) // 8

if hasattr(np, "bitwise_count"):
    _popcount_u64 = np.bitwise_count
else:  # numpy < 2.0: classic SWAR popcount on uint64
    def _popcount_u64(x: np.ndarray) -> np.ndarray:
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


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


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(N, 72)`` bit-plane into ``(N, 2)`` uint64 lanes.

    See the module docstring for the lane layout.  Nonzero entries count
    as 1 (``np.packbits`` semantics).
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
    codeword so downstream array code (masking, ``np.bincount``) never
    touches Python enums; :meth:`error_classes` and :meth:`result`
    rehydrate the object API where convenience matters more than speed.

    The decoded data is stored in whichever representation the engine
    produced — packed ``(N,)`` uint64 words from the packed kernel or an
    ``(N, 64)`` bit matrix from the unpacked oracle — and the other view
    is materialised lazily on first access, so a streamed million-word
    decode never pays for a bit matrix nobody reads.
    """

    __slots__ = ("error_codes", "corrected_bits", "_data_bits", "_data_words")

    def __init__(
        self,
        *,
        error_codes: np.ndarray,
        corrected_bits: np.ndarray,
        data_bits: Optional[np.ndarray] = None,
        data_words: Optional[np.ndarray] = None,
    ) -> None:
        if data_bits is None and data_words is None:
            raise ConfigurationError(
                "BatchDecodeResult requires data_bits or data_words"
            )
        #: (N,) uint8 codes into ERROR_CLASS_ORDER
        self.error_codes = error_codes
        #: (N,) corrected codeword position, -1 if none
        self.corrected_bits = corrected_bits
        self._data_bits = data_bits
        self._data_words = data_words

    def __len__(self) -> int:
        return int(self.error_codes.shape[0])

    @property
    def data_bits(self) -> np.ndarray:
        """The decoded data as an ``(N, 64)`` LSB-first bit matrix."""
        if self._data_bits is None:
            self._data_bits = words_to_bits(self._data_words)
        return self._data_bits

    @property
    def data_words(self) -> np.ndarray:
        """The decoded data as an ``(N,)`` uint64 array."""
        if self._data_words is None:
            self._data_words = bits_to_words(self._data_bits)
        return self._data_words

    def counts(self) -> Dict[ErrorClass, int]:
        """Number of codewords per error class."""
        histogram = np.bincount(self.error_codes, minlength=len(ERROR_CLASS_ORDER))
        return {cls: int(histogram[code]) for code, cls in enumerate(ERROR_CLASS_ORDER)}

    def result(self, index: int) -> DecodeResult:
        """The scalar :class:`DecodeResult` view of one decoded codeword."""
        if self._data_bits is not None:
            data = self._data_bits[index]
        else:
            # One-word unpack: don't materialise the whole bit matrix for
            # a scalar view into a streamed result.
            data = words_to_bits(self._data_words[index:index + 1])[0]
        return DecodeResult(
            data=data,
            error_class=ERROR_CLASS_ORDER[int(self.error_codes[index])],
            corrected_bit=int(self.corrected_bits[index]),
        )


class SecdedCode:
    """A (72, 64) extended Hamming code.

    Layout: 71 Hamming positions numbered 1..71 where power-of-two
    positions hold check bits and the rest hold the 64 data bits, plus an
    overall parity bit appended at index 71 of the codeword array.  The
    batch API runs on the uint64-lane kernels described in the module
    docstring.
    """

    data_bits = units.WORD_BITS
    codeword_bits = units.CODEWORD_BITS

    def __init__(self) -> None:
        positions = np.arange(1, 72)                      # Hamming positions 1..71
        self._parity_positions = np.array([1, 2, 4, 8, 16, 32, 64])
        self._data_positions = np.array(
            [p for p in positions if p not in set(self._parity_positions.tolist())]
        )
        if self._data_positions.shape[0] != self.data_bits:
            raise ConfigurationError("internal SECDED layout error")

        self._build_packed_constants()

    def _build_packed_constants(self) -> None:
        """Lane masks and shift runs for the packed kernels (module docstring)."""
        mask64 = (1 << 64) - 1
        # Per-syndrome-bit column masks over the 71 Hamming bits, split into
        # the two lanes (lane 1 mask covers only its low 7 bits, so the
        # overall parity bit at lane-1 bit 7 never leaks into a syndrome).
        syn_lo, syn_hi = [], []
        for b in range(7):
            full = 0
            for pos in range(1, 72):
                if (pos >> b) & 1:
                    full |= 1 << (pos - 1)
            syn_lo.append(full & mask64)
            syn_hi.append(full >> 64)
        self._syn_mask_lo = np.array(syn_lo, dtype=np.uint64)
        self._syn_mask_hi = np.array(syn_hi, dtype=np.uint64)

        # Per-parity-bit coverage masks in data-word bit space.
        coverage = []
        for parity_pos in self._parity_positions.tolist():
            mask = 0
            for i, data_pos in enumerate(self._data_positions.tolist()):
                if data_pos & parity_pos:
                    mask |= 1 << i
            coverage.append(mask)
        self._coverage_masks = np.array(coverage, dtype=np.uint64)
        # Parity bits live at codeword indices 0,1,3,7,15,31,63 — all lane 0.
        self._parity_lane_shifts = (self._parity_positions - 1).astype(np.uint64)

        # Scatter/gather runs: the data positions form contiguous runs
        # between parity positions, so data bit i maps to codeword bit
        # i + offset with a constant offset per run.  Runs whose codeword
        # bits land in lane 0 become (data-space mask, shift) pairs; the
        # single lane-1 run (data bits 57..63 -> codeword bits 64..70)
        # gets its own right-shift.
        offsets = (self._data_positions - 1 - np.arange(self.data_bits)).tolist()
        runs: List[Tuple[int, int]] = []        # (data-space mask, offset)
        start = 0
        while start < self.data_bits:
            end = start
            while end < self.data_bits and offsets[end] == offsets[start]:
                end += 1
            mask = ((1 << (end - start)) - 1) << start
            runs.append((mask, offsets[start]))
            start = end
        self._lo_runs = [
            (np.uint64(mask), np.uint64(offset))
            for mask, offset in runs
            if (mask.bit_length() - 1) + offset < 64
        ]
        hi_runs = [
            (mask, offset)
            for mask, offset in runs
            if (mask.bit_length() - 1) + offset >= 64
        ]
        if len(hi_runs) != 1:
            raise ConfigurationError("internal SECDED layout error")
        hi_mask, hi_offset = hi_runs[0]
        # Lowest data bit of the lane-1 run; its codeword bit is 64 + 0.
        self._hi_run_start = np.uint64(64 - hi_offset)
        self._hi_run_mask = np.uint64(hi_mask)
        self._lane1_hamming_mask = np.uint64((1 << 7) - 1)

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _bits_to_int(bits: np.ndarray) -> int:
        return int(sum(int(b) << i for i, b in enumerate(bits)))

    def _as_data_bits(self, data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        """Accept either ``(N,)`` uint64 words or an ``(N, 64)`` bit matrix."""
        arr = np.asarray(data)
        if arr.ndim == 2:
            if arr.shape[1] != self.data_bits:
                raise ConfigurationError(
                    f"bit matrix must have {self.data_bits} columns, got {arr.shape[1]}"
                )
            bits = arr.astype(np.uint8)
            if np.any(bits > 1):
                raise ConfigurationError("bit matrix entries must be 0 or 1")
            return bits
        return words_to_bits(data)

    def _as_data_words(self, data: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        """Accept either ``(N,)`` uint64 words or an ``(N, 64)`` bit matrix."""
        arr = np.asarray(data)
        if arr.ndim == 2:
            return bits_to_words(self._as_data_bits(arr))
        return _coerce_words(arr)

    # -- packed kernels ----------------------------------------------------
    def _encode_words_to_lanes(self, words: np.ndarray) -> np.ndarray:
        """Encode validated ``(N,)`` uint64 words into ``(N, 2)`` lanes."""
        lane0 = np.zeros(words.shape, dtype=np.uint64)
        for mask, shift in self._lo_runs:
            lane0 |= (words & mask) << shift
        lane1 = (words >> self._hi_run_start) & self._lane1_hamming_mask
        for j in range(7):
            parity = (_popcount_u64(words & self._coverage_masks[j]) & 1)
            lane0 |= parity.astype(np.uint64) << self._parity_lane_shifts[j]
        overall = (_popcount_u64(lane0) + _popcount_u64(lane1)) & 1
        lane1 = lane1 | (overall.astype(np.uint64) << np.uint64(7))
        return np.stack([lane0, lane1], axis=1)

    def _classify(
        self, syndrome: np.ndarray, parity_ok: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared Table-I classifier: (codes, corrected positions, in-code mask).

        The unpacked oracle routes through this too, so the two engines
        can differ only in how they compute syndromes and parity.
        """
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
        return codes, corrected, in_code

    def _decode_lanes(self, lanes: np.ndarray) -> BatchDecodeResult:
        """Decode ``(N, 2)`` uint64 lanes via XOR-popcount syndromes."""
        lane0 = lanes[:, 0]
        lane1 = lanes[:, 1] & self._lane1_hamming_mask
        received = ((lanes[:, 1] >> np.uint64(7)) & np.uint64(1)).astype(np.int64)

        syndrome = np.zeros(lane0.shape, dtype=np.int64)
        for b in range(7):
            ones = _popcount_u64(lane0 & self._syn_mask_lo[b]) + _popcount_u64(
                lane1 & self._syn_mask_hi[b]
            )
            syndrome |= (ones & 1).astype(np.int64) << b
        overall = ((_popcount_u64(lane0) + _popcount_u64(lane1)) & 1).astype(np.int64)
        parity_ok = overall == received

        codes, corrected, in_code = self._classify(syndrome, parity_ok)

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
        """Encode a batch of words directly into ``(N, 2)`` uint64 lanes.

        The zero-unpack fast path of the streaming cell array: data words
        in, packed codewords out, no ``(N, 72)`` byte matrix anywhere.
        """
        return self._encode_words_to_lanes(self._as_data_words(data))

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        """Decode an ``(N, 72)`` block of possibly corrupted codewords.

        Also accepts ``(N, 2)`` uint64 lanes (see the module docstring),
        which is how the streaming cell array feeds its stored state
        without ever unpacking.
        """
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

    # -- scalar API (thin wrappers over one-element batches) ----------------
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

    def decode_to_int(self, codeword: np.ndarray) -> Tuple[int, ErrorClass]:
        """Decode and return the data as an integer together with the class."""
        result = self.decode(codeword)
        return self._bits_to_int(result.data), result.error_class
