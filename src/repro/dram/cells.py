"""Explicit cell-array DRAM simulator.

This is the "FPGA testbed in software": a small DRAM array whose
individual cells have sampled retention times, true-/anti-cell charge
polarity, variable retention time (VRT) and cell-to-cell interference.
It is the mechanism-level counterpart of the closed-form statistical
model used for the full-scale campaigns: unit tests and examples
exercise real SECDED decoding on real bit flips with it.

Semantics
---------
* Every 64-bit word is stored as a 72-bit SECDED codeword.
* A cell retains its charge for ``retention`` seconds after the last
  recharge; a recharge happens on every write, on every read of the word
  (reading senses and rewrites the row) and on every auto-refresh
  (period ``TREFP``).
* Once a cell has gone longer than its retention time without a
  recharge, its stored value decays towards the cell's discharge
  polarity.  If the stored bit already equals the discharge polarity the
  decay is invisible — this is how the data pattern (entropy) affects
  the observed error rate.
* Accessing a row disturbs its physical neighbours (row hammer): the
  neighbours' effective retention shrinks with the number of
  disturbances accumulated since their last recharge.

Batch semantics
---------------
``write_batch`` / ``read_batch`` are the hot path: decay, SECDED
decoding, scrub-on-read, recharge bookkeeping and error logging are
applied to all requested words with array operations, and the scalar
``read`` / ``write`` / ``fill`` / ``sweep_read`` route through them.  A
batch models one burst access: every word in the batch is sensed against
the array state at the start of the burst, then all recharges land and
all row-hammer disturbances accrue.  (A sequential loop of scalar calls
additionally lets earlier accesses disturb later ones within the same
burst; at the default interference strength the difference is a
sub-percent retention shift.)  Locations within one batch must be
unique — duplicated words would alias the in-place bookkeeping.

Batch locations may be given either as a sequence of
:class:`CellLocation` objects or directly as a 1-D integer array of word
indices (``geometry.word_index`` order) — the index form is the
million-word fast path, skipping per-location Python objects entirely.

Streaming and memory
--------------------
Codewords, VRT flags and discharge polarities are stored bit-packed as
``(n_words, 2)`` uint64 lanes (see :mod:`repro.dram.ecc`), and every
bulk operation — initial retention sampling, ``write_batch``,
``read_batch`` — streams through the array in blocks of
``config.block_words`` words, so peak temporary allocation is bounded by
the block size rather than the batch size.  Streaming is exact, not an
approximation: blocks only touch their own words' state, and the one
cross-word effect (row-hammer disturbance) is applied after every block
has been sensed, which is precisely the all-at-once burst semantics
above.  Results are therefore bit-identical for any ``block_words``.

The old hard 50M-cell cap is replaced by a memory-budget check: the
simulator computes its resident bytes per word (dominated by the
per-cell float64 retention table) and refuses geometries that exceed
``config.memory_budget_bytes``, so a million-word (72M-cell) array fits
comfortably in the default 2 GiB budget while full-scale campaign
geometries are still rejected with the same guidance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import units
from repro.dram.calibration import DEFAULT_CALIBRATION, DramCalibration
from repro.dram.ecc import (
    BatchDecodeResult,
    ERROR_CLASS_CODES,
    ERROR_CLASS_ORDER,
    DecodeResult,
    ErrorClass,
    SecdedCode,
    pack_bits,
    unpack_codewords,
)
from repro.dram.geometry import CellLocation, DramGeometry, small_geometry
from repro.dram.records import ErrorLog
from repro.dram.retention import sample_retention_times
from repro.errors import ConfigurationError, SimulationError
from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.dram.cells")

_NO_ERROR_CODE = ERROR_CLASS_CODES[ErrorClass.NO_ERROR]
_UNCORRECTABLE_CODE = ERROR_CLASS_CODES[ErrorClass.UNCORRECTABLE]
_SILENT_CODE = ERROR_CLASS_CODES[ErrorClass.SILENT]
_CORRECTED_CODE = ERROR_CLASS_CODES[ErrorClass.CORRECTED]
#: decode-code -> ErrorClass lookup as an object array, so a whole batch of
#: error codes maps to classes in one fancy-indexing operation
_ERROR_CLASS_BY_CODE = np.array(ERROR_CLASS_ORDER, dtype=object)

#: Locations accepted by the batch API: CellLocation objects or word indices.
BatchLocations = Union[Sequence[CellLocation], np.ndarray]

#: Resident bytes per word of simulator state: the (72,) float64 retention
#: row dominates; three uint64 lane pairs (codeword, VRT, discharge) plus
#: float64 recharge/exposure/disturbance counters and the written flag.
_STATE_BYTES_PER_WORD = units.CODEWORD_BITS * 8 + 3 * 16 + 3 * 8 + 1


@dataclass
class CellArrayConfig:
    """Configuration of the explicit cell-array simulator."""

    geometry: DramGeometry
    trefp_s: float = 0.064
    vdd_v: float = units.NOMINAL_VDD_V
    temperature_c: float = 50.0
    #: strength of the row-hammer disturbance: fractional retention loss per
    #: disturbance of a neighbouring row within one refresh window
    interference_strength: float = 2e-4
    #: probability that a cell is a VRT cell whose retention occasionally
    #: collapses by an order of magnitude
    vrt_fraction: float = 0.01
    #: fraction of true-cells (cells that discharge towards logic 0); DRAM
    #: arrays are predominantly true-cell, which is why data patterns with
    #: more charged bits (higher entropy) expose more retention failures
    true_cell_fraction: float = 0.8
    #: retention calibration; tests and small-scale examples may substitute a
    #: weaker population so failures become observable in tiny arrays
    calibration: DramCalibration = DEFAULT_CALIBRATION
    seed: Optional[int] = None
    #: streaming block size for bulk operations; results are bit-identical
    #: for any value, only peak temporary allocation changes
    block_words: int = 65536
    #: resident-state budget replacing the old hard 50M-cell cap
    memory_budget_bytes: int = 2 * 1024 ** 3

    def __post_init__(self) -> None:
        if self.trefp_s <= 0:
            raise ConfigurationError("trefp_s must be positive")
        if self.interference_strength < 0:
            raise ConfigurationError("interference_strength must be non-negative")
        if not 0.0 <= self.vrt_fraction <= 1.0:
            raise ConfigurationError("vrt_fraction must be in [0, 1]")
        if not 0.0 <= self.true_cell_fraction <= 1.0:
            raise ConfigurationError("true_cell_fraction must be in [0, 1]")
        if self.block_words < 1:
            raise ConfigurationError("block_words must be at least 1")
        if self.memory_budget_bytes < 1:
            raise ConfigurationError("memory_budget_bytes must be positive")


@dataclass(frozen=True)
class BatchReadResult:
    """Outcome of one burst read of many words.

    ``locations`` mirrors whatever addressing the read used: a sequence
    of :class:`CellLocation` objects, or a word-index array for the
    index-addressed fast path.
    """

    locations: BatchLocations
    decode: BatchDecodeResult

    def __len__(self) -> int:
        return len(self.decode)

    def counts(self) -> Dict[ErrorClass, int]:
        """Words per error class, including :attr:`ErrorClass.NO_ERROR`."""
        return self.decode.counts()


class CellArraySimulator:
    """Mechanism-level simulation of an ECC-protected DRAM array."""

    def __init__(self, config: Optional[CellArrayConfig] = None) -> None:
        self.config = config or CellArrayConfig(geometry=small_geometry())
        self.geometry = self.config.geometry
        self._rng = np.random.default_rng(self.config.seed)
        self._code = SecdedCode()
        self._block_words = int(self.config.block_words)

        n_words = self.geometry.total_words
        required = n_words * _STATE_BYTES_PER_WORD
        if required > self.config.memory_budget_bytes:
            logger.info(
                "rejecting cell-array geometry: %d words need ~%d bytes of "
                "state, over the %d-byte budget",
                n_words, required, self.config.memory_budget_bytes,
            )
            raise ConfigurationError(
                f"cell-array state for {n_words} words needs ~{required} bytes, "
                f"over the {self.config.memory_budget_bytes}-byte budget; use "
                "the statistical model for full-scale campaigns or raise "
                "CellArrayConfig.memory_budget_bytes"
            )
        logger.debug(
            "initialising cell array: %d words (%d cells), ~%d bytes of state",
            n_words, n_words * units.CODEWORD_BITS, required,
        )

        # Per-cell state, bit-packed into (words, 2) uint64 lanes; only the
        # retention table stays float64-per-cell.  Sampling streams in
        # block-sized slabs — sequential Generator draws are bit-identical
        # to one whole-array draw, so the seeded population is unchanged.
        self.codewords = np.zeros((n_words, 2), dtype=np.uint64)
        self.base_retention_s = np.empty((n_words, units.CODEWORD_BITS))
        self.vrt_mask = np.empty((n_words, 2), dtype=np.uint64)
        #: discharge polarity of each cell (true-cell decays to 0, anti-cell to 1)
        self.discharge_value = np.empty((n_words, 2), dtype=np.uint64)
        for start, stop in self._blocks(n_words):
            self.base_retention_s[start:stop] = sample_retention_times(
                (stop - start) * units.CODEWORD_BITS,
                self.config.temperature_c,
                self.config.vdd_v,
                calibration=self.config.calibration.retention,
                rng=self._rng,
            ).reshape(-1, units.CODEWORD_BITS)
        for start, stop in self._blocks(n_words):
            # VRT cells: occasionally an order of magnitude weaker.
            draw = self._rng.random((stop - start, units.CODEWORD_BITS))
            self.vrt_mask[start:stop] = pack_bits(draw < self.config.vrt_fraction)
        for start, stop in self._blocks(n_words):
            draw = self._rng.random((stop - start, units.CODEWORD_BITS))
            self.discharge_value[start:stop] = pack_bits(
                draw >= self.config.true_cell_fraction
            )

        # Per-word bookkeeping.
        self.last_recharge_s = np.zeros(n_words)
        self.max_exposure_s = np.zeros(n_words)   #: worst unrefreshed gap since last write
        self.word_written = np.zeros(n_words, dtype=bool)
        #: row-hammer disturbance accumulated per word since its last recharge
        self.disturbance = np.zeros(n_words)

        self.now_s = 0.0
        self.error_log = ErrorLog()

    # ------------------------------------------------------------------
    def _blocks(self, count: int):
        """Yield (start, stop) streaming block bounds covering ``count`` items."""
        for start in range(0, count, self._block_words):
            yield start, min(start + self._block_words, count)

    def _word_indices(self, locations: BatchLocations) -> np.ndarray:
        if isinstance(locations, np.ndarray) and np.issubdtype(
            locations.dtype, np.integer
        ):
            if locations.ndim != 1:
                raise ConfigurationError(
                    f"word-index locations must be 1-D, got shape {locations.shape}"
                )
            indices = locations.astype(np.int64, copy=False)
            if indices.size and (
                int(indices.min()) < 0
                or int(indices.max()) >= self.geometry.total_words
            ):
                raise ConfigurationError("word index out of range for this geometry")
        else:
            indices = np.fromiter(
                (self.geometry.word_index(location) for location in locations),
                dtype=np.int64,
                count=len(locations),
            )
        if np.unique(indices).size != indices.size:
            raise ConfigurationError(
                "batch operations require unique locations: duplicated words "
                "would alias the in-place recharge/scrub bookkeeping"
            )
        return indices

    def advance_time(self, delta_s: float) -> None:
        """Advance the simulation clock; auto-refresh bounds cell exposure."""
        if delta_s < 0:
            raise SimulationError("time cannot move backwards")
        self.now_s += delta_s

    def _record_exposure(self, words: np.ndarray) -> None:
        """Account the un-recharged gap ending now for each of ``words``.

        Auto-refresh recharges every cell at least once per TREFP, so the
        worst-case exposure of any single retention window is bounded by
        TREFP even when the word is never accessed.
        """
        gaps = self.now_s - self.last_recharge_s[words]
        exposure = np.minimum(gaps, self.config.trefp_s)
        self.max_exposure_s[words] = np.maximum(self.max_exposure_s[words], exposure)

    def _effective_retention(self, words: np.ndarray) -> np.ndarray:
        """Per-cell effective retention for a batch of words, as (N, 72)."""
        # Advanced indexing already yields a fresh array, safe to mutate.
        retention = self.base_retention_s[words]
        retention[unpack_codewords(self.vrt_mask[words]) != 0] *= 0.1
        denom = 1.0 + self.config.interference_strength * self.disturbance[words]
        return retention / denom[:, None]

    def _disturb_neighbour_rows(self, words: np.ndarray) -> None:
        """Row-hammer bookkeeping for a batch of accessed words.

        The word index layout is row-major within each bank, so the words
        of one physical row form one contiguous slab of ``columns_per_row``
        entries; a reshape exposes the disturbance counters row-by-row and
        a bincount accumulates duplicate hits from the same batch (hit
        counts are small integers, so adding them in one shot is exact —
        bit-identical to repeated ``+= 1.0``).

        This is the one cross-word effect of an access, so streamed bursts
        must apply it only after every block has been sensed and
        recharged — exactly the all-at-once burst semantics.
        """
        columns = self.geometry.columns_per_row
        rows = words // columns
        row_in_bank = rows % self.geometry.rows_per_bank
        neighbours = np.concatenate([
            rows[row_in_bank > 0] - 1,
            rows[row_in_bank < self.geometry.rows_per_bank - 1] + 1,
        ])
        if neighbours.size:
            hits = np.bincount(neighbours)
            touched = np.flatnonzero(hits)
            self.disturbance.reshape(-1, columns)[touched] += hits[touched][:, None]

    def _recharge(self, words: np.ndarray) -> None:
        self.last_recharge_s[words] = self.now_s
        self.max_exposure_s[words] = 0.0
        self.disturbance[words] = 0.0

    def _log_block_errors(
        self,
        locations: BatchLocations,
        words: np.ndarray,
        base: int,
        error_rows: np.ndarray,
        error_codes: np.ndarray,
        workload: str,
    ) -> None:
        """Append one streamed block's ECC events to the error log."""
        if not error_rows.size:
            return
        if isinstance(locations, np.ndarray):
            # Index-addressed read: materialise CellLocation objects only
            # for the (sparse) error rows.
            event_locations = [
                self.geometry.cell_from_word_index(int(word))
                for word in words[error_rows]
            ]
        else:
            event_locations = [
                locations[base + int(row)] for row in error_rows
            ]
        self.error_log.append_batch(
            error_classes=_ERROR_CLASS_BY_CODE[error_codes[error_rows]].tolist(),
            locations=event_locations,
            timestamp_s=self.now_s,
            workload=workload,
        )

    # -- memory operations ---------------------------------------------------
    def write_batch(
        self, locations: BatchLocations, data_values: Union[np.ndarray, Sequence[int]]
    ) -> None:
        """Store one 64-bit value per location in a single burst.

        Writing recharges each word and resets its history, then the
        burst's row-hammer disturbances land on the neighbouring rows.
        Encoding streams in ``block_words`` slabs straight into the
        packed codeword lanes.
        """
        telemetry = get_telemetry()
        words = self._word_indices(locations)
        data = np.asarray(data_values)
        if data.shape != (words.size,):
            raise ConfigurationError(
                "locations and data_values must have equal length"
            )
        # _as_data_words validates the 64-bit range up front (raising
        # ConfigurationError before any state mutation), so the per-block
        # encode below can never fail halfway through the burst.
        validated = self._code._as_data_words(data)
        with telemetry.span("cells.write_batch"):
            blocks_streamed = 0
            for start, stop in self._blocks(words.size):
                block = words[start:stop]
                self.codewords[block] = self._code.encode_packed(validated[start:stop])
                self._recharge(block)
                self.word_written[block] = True
                blocks_streamed += 1
            self._disturb_neighbour_rows(words)
        if telemetry.enabled:
            telemetry.incr("cells.words_written", int(words.size))
            telemetry.incr("cells.blocks_streamed", blocks_streamed)

    def read_batch(
        self, locations: BatchLocations, workload: str = ""
    ) -> BatchReadResult:
        """Read a burst of words: decay, SECDED decode, scrub, log — streamed.

        Reading senses whole rows, so every word is recharged; single-bit
        errors are corrected in place (scrub-on-read) while multi-bit
        corruption persists until rewritten.  The burst streams through
        ``block_words`` slabs; per-word results are bit-identical for any
        block size (see the module docstring).
        """
        words = self._word_indices(locations)
        unwritten = np.flatnonzero(~self.word_written[words])
        if unwritten.size:
            if isinstance(locations, np.ndarray):
                culprit = self.geometry.cell_from_word_index(
                    int(words[unwritten[0]])
                )
            else:
                culprit = locations[int(unwritten[0])]
            raise SimulationError(f"read of unwritten location {culprit}")

        telemetry = get_telemetry()
        error_codes = np.empty(words.size, dtype=np.uint8)
        corrected_bits = np.empty(words.size, dtype=np.int64)
        data_words = np.empty(words.size, dtype=np.uint64)

        with telemetry.span("cells.read_batch"):
            blocks_streamed = 0
            scrubbed_words = 0
            for start, stop in self._blocks(words.size):
                block = words[start:stop]
                self._record_exposure(block)
                retention = self._effective_retention(block)
                leaked = retention < self.max_exposure_s[block][:, None]
                leak_lanes = pack_bits(leaked)
                stored = self.codewords[block]
                decayed = (stored & ~leak_lanes) | (self.discharge_value[block] & leak_lanes)

                decode = self._code.decode_batch(decayed)
                error_codes[start:stop] = decode.error_codes
                corrected_bits[start:stop] = decode.corrected_bits
                data_words[start:stop] = decode.data_words

                error_rows = np.flatnonzero(decode.error_codes != _NO_ERROR_CODE)
                self._log_block_errors(
                    locations, block, start, error_rows, decode.error_codes, workload
                )

                # Scrub-on-read: corrected words are written back as valid
                # codewords; multi-bit corruption persists (the data is lost
                # until rewritten).  Clean words are already valid codewords,
                # so re-encoding them would be a bit-for-bit no-op.
                scrubbed = decode.error_codes == _CORRECTED_CODE
                if scrubbed.any():
                    decayed[scrubbed] = self._code.encode_packed(
                        decode.data_words[scrubbed]
                    )
                    scrubbed_words += int(scrubbed.sum())
                self.codewords[block] = decayed
                self._recharge(block)
                blocks_streamed += 1
            self._disturb_neighbour_rows(words)

        if telemetry.enabled:
            # Per-burst accounting, computed once from the collected codes so
            # the streaming loop above stays untouched in no-op mode.
            telemetry.incr("cells.words_read", int(words.size))
            telemetry.incr("cells.blocks_streamed", blocks_streamed)
            corrected = int((error_codes == _CORRECTED_CODE).sum())
            uncorrectable = int((error_codes == _UNCORRECTABLE_CODE).sum())
            silent = int((error_codes == _SILENT_CODE).sum())
            if corrected:
                telemetry.incr("cells.corrected", corrected)
            if uncorrectable:
                telemetry.incr("cells.uncorrectable", uncorrectable)
            if silent:
                telemetry.incr("cells.silent", silent)
            if scrubbed_words:
                telemetry.incr("cells.scrubbed", scrubbed_words)
            telemetry.observe("cells.errors_per_burst",
                              corrected + uncorrectable + silent)

        result_decode = BatchDecodeResult(
            data_words=data_words,
            error_codes=error_codes,
            corrected_bits=corrected_bits,
        )
        kept = locations if isinstance(locations, np.ndarray) else list(locations)
        return BatchReadResult(locations=kept, decode=result_decode)

    def write(self, location: CellLocation, data: int) -> None:
        """Store a 64-bit value; writing recharges and resets the word's history."""
        if not isinstance(data, (int, np.integer)) or isinstance(data, bool):
            raise ConfigurationError("data must be a 64-bit unsigned integer")
        if not 0 <= data < (1 << units.WORD_BITS):
            raise ConfigurationError("data must be a 64-bit unsigned integer")
        self.write_batch([location], np.array([data], dtype=np.uint64))

    def read(self, location: CellLocation, workload: str = "") -> DecodeResult:
        """Read a word: apply decay, decode through ECC, log any error."""
        return self.read_batch([location], workload=workload).decode.result(0)

    # -- bulk helpers used by tests and the validation example ---------------
    def fill(self, data_values: List[int], locations: Optional[List[CellLocation]] = None) -> List[CellLocation]:
        """Write a list of values to consecutive locations; returns the locations."""
        if locations is None:
            locations = [
                self.geometry.cell_from_word_index(i) for i in range(len(data_values))
            ]
        if len(locations) != len(data_values):
            raise ConfigurationError("locations and data_values must have equal length")
        self.write_batch(locations, data_values)
        return locations

    def idle(self, duration_s: float) -> None:
        """Let the array sit idle (only auto-refresh active) for ``duration_s``."""
        self.advance_time(duration_s)

    def sweep_read(
        self, locations: BatchLocations, workload: str = ""
    ) -> Dict[ErrorClass, int]:
        """Read every location once and return error counts by class."""
        counts = self.read_batch(locations, workload=workload).counts()
        return {
            ErrorClass.CORRECTED: counts[ErrorClass.CORRECTED],
            ErrorClass.UNCORRECTABLE: counts[ErrorClass.UNCORRECTABLE],
            ErrorClass.SILENT: counts[ErrorClass.SILENT],
        }

    def measured_wer(self, footprint_words: Optional[int] = None) -> float:
        """WER per Eq. 2: unique CE word locations / footprint size in words."""
        footprint = footprint_words or int(self.word_written.sum())
        if footprint <= 0:
            raise SimulationError("cannot compute WER for an empty footprint")
        return len(self.error_log.unique_word_locations(ErrorClass.CORRECTED)) / footprint
