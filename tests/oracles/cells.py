"""Explicit cell-array DRAM simulator: the mechanism-level cross-check.

The campaigns sample WER from the closed-form
:class:`~repro.dram.statistical.StatisticalErrorModel`.  This module is
its mechanism-level counterpart for small arrays: individual cells have
sampled retention times, true-/anti-cell charge polarity, variable
retention time (VRT) and cell-to-cell interference, and every word is
read back through real SECDED decoding (:mod:`tests.oracles.ecc`).
``TestCellArrayCrossCheck`` runs operating points through it to check
the trends the statistical model encodes.

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

``write_batch`` / ``read_batch`` model one burst access: every word in
the batch is sensed against the array state at the start of the burst,
then all recharges land and all row-hammer disturbances accrue.  (A
sequential loop of scalar calls additionally lets earlier accesses
disturb later ones within the same burst.)  Locations within one batch
must be unique, and may be given as :class:`CellLocation` objects or as
a 1-D integer array of word indices (:func:`word_index` order).

Codewords, VRT flags and discharge polarities are stored bit-packed as
``(n_words, 2)`` uint64 lanes (see :mod:`tests.oracles.ecc`).  The
module also holds what only the cell array needs: full word coordinates
(:class:`CellLocation` and its flat-index arithmetic), a tiny test
geometry, per-cell retention sampling and the ECC error log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

import numpy as np

from repro import units
from repro.dram.calibration import (
    DEFAULT_CALIBRATION,
    DramCalibration,
    RetentionCalibration,
)
from repro.dram.ecc import ErrorClass
from repro.dram.geometry import DramGeometry, RankLocation
from repro.dram.retention import log_median_retention
from repro.errors import ConfigurationError, SimulationError

from tests.oracles.ecc import (
    ERROR_CLASS_CODES,
    ERROR_CLASS_ORDER,
    BatchDecodeResult,
    DecodeResult,
    SecdedCode,
    pack_bits,
    unpack_codewords,
)

_NO_ERROR_CODE = ERROR_CLASS_CODES[ErrorClass.NO_ERROR]
_CORRECTED_CODE = ERROR_CLASS_CODES[ErrorClass.CORRECTED]
#: decode-code -> ErrorClass lookup as an object array, so a whole batch of
#: error codes maps to classes in one fancy-indexing operation
_ERROR_CLASS_BY_CODE = np.array(ERROR_CLASS_ORDER, dtype=object)

#: Largest array the simulator holds: its per-cell float64 retention table
#: costs 576 bytes a word, so full-scale geometries belong to the
#: statistical model.
MAX_WORDS = 1 << 20
#: Probability that a cell is a VRT cell whose retention occasionally
#: collapses by an order of magnitude.
VRT_FRACTION = 0.01
#: Fraction of true-cells (cells that discharge towards logic 0); DRAM
#: arrays are predominantly true-cell, which is why data patterns with
#: more charged bits (higher entropy) expose more retention failures.
TRUE_CELL_FRACTION = 0.8


# ---------------------------------------------------------------------------
# Word coordinates.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellLocation:
    """Full coordinates of a 64-bit word (the ECC granularity)."""

    dimm: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def rank_location(self) -> RankLocation:
        return RankLocation(self.dimm, self.rank)


def validate_cell(geometry: DramGeometry, cell: CellLocation) -> None:
    geometry.validate_rank(cell.rank_location)
    if not 0 <= cell.bank < geometry.banks_per_rank:
        raise ConfigurationError(f"bank {cell.bank} out of range")
    if not 0 <= cell.row < geometry.rows_per_bank:
        raise ConfigurationError(f"row {cell.row} out of range")
    if not 0 <= cell.column < geometry.columns_per_row:
        raise ConfigurationError(f"column {cell.column} out of range")


def word_index(geometry: DramGeometry, cell: CellLocation) -> int:
    """Flat word index of a cell location within the whole memory."""
    validate_cell(geometry, cell)
    rank_idx = geometry.rank_index(cell.rank_location)
    within_rank = (
        cell.bank * geometry.words_per_bank
        + cell.row * geometry.columns_per_row
        + cell.column
    )
    return rank_idx * geometry.words_per_rank + within_rank


def cell_from_word_index(geometry: DramGeometry, index: int) -> CellLocation:
    """Inverse of :func:`word_index`."""
    if not 0 <= index < geometry.total_words:
        raise ConfigurationError(f"word index {index} out of range")
    rank_idx, within_rank = divmod(index, geometry.words_per_rank)
    bank, rest = divmod(within_rank, geometry.words_per_bank)
    row, column = divmod(rest, geometry.columns_per_row)
    rank = geometry.rank_from_index(rank_idx)
    return CellLocation(rank.dimm, rank.rank, bank, row, column)


def small_geometry() -> DramGeometry:
    """A deliberately tiny geometry used by cell-level tests."""
    return DramGeometry(
        num_dimms=2,
        ranks_per_dimm=2,
        banks_per_rank=2,
        rows_per_bank=64,
        columns_per_row=32,
    )


def sample_retention_times(
    n_cells: int,
    temperature_c: float,
    vdd_v: float = 1.5,
    calibration: Optional[RetentionCalibration] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample per-cell retention times (seconds) from the lognormal population."""
    if n_cells <= 0:
        raise ConfigurationError("n_cells must be positive")
    cal = calibration or DEFAULT_CALIBRATION.retention
    generator = rng or np.random.default_rng()
    mu = log_median_retention(temperature_c, vdd_v, cal)
    return np.exp(generator.normal(mu, cal.log_sigma, size=n_cells))


# ---------------------------------------------------------------------------
# The ECC error log.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorRecord:
    """One ECC event: what happened, where and when."""

    error_class: ErrorClass
    location: CellLocation
    timestamp_s: float
    workload: str = ""

    def __post_init__(self) -> None:
        if self.error_class is ErrorClass.NO_ERROR:
            raise ConfigurationError("ErrorRecord must describe an actual error")
        if self.timestamp_s < 0:
            raise ConfigurationError("timestamp_s must be non-negative")

    @property
    def rank_location(self) -> RankLocation:
        return self.location.rank_location


class ErrorLog:
    """Append-only log of ECC events, as SLIMpro reports them.

    Events live in parallel class/location/timestamp/workload columns; a
    burst read appends them with one :meth:`append_batch` call.
    :class:`ErrorRecord` objects are materialised lazily for iteration
    and cached until the log grows.
    """

    def __init__(self) -> None:
        self._classes: List[ErrorClass] = []
        self._locations: List[CellLocation] = []
        self._timestamps: List[float] = []
        self._workloads: List[str] = []
        self._materialized: Optional[List[ErrorRecord]] = None

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[ErrorRecord]:
        if self._materialized is None:
            self._materialized = [
                ErrorRecord(
                    error_class=cls, location=loc, timestamp_s=t, workload=wl
                )
                for cls, loc, t, wl in zip(
                    self._classes, self._locations, self._timestamps, self._workloads
                )
            ]
        return iter(self._materialized)

    def append_batch(
        self,
        error_classes: Sequence[ErrorClass],
        locations: Sequence[CellLocation],
        timestamp_s: float,
        workload: str = "",
    ) -> None:
        """Append one burst's events, checking the record invariants once."""
        if len(error_classes) != len(locations):
            raise ConfigurationError(
                "error_classes and locations must have equal length"
            )
        if timestamp_s < 0:
            raise ConfigurationError("timestamp_s must be non-negative")
        if any(cls is ErrorClass.NO_ERROR for cls in error_classes):
            raise ConfigurationError("ErrorRecord must describe an actual error")
        self._classes.extend(error_classes)
        self._locations.extend(locations)
        self._timestamps.extend([timestamp_s] * len(locations))
        self._workloads.extend([workload] * len(locations))
        self._materialized = None

    def unique_word_locations(
        self, error_class: ErrorClass = ErrorClass.CORRECTED
    ) -> Set[CellLocation]:
        """Distinct word locations affected by a given error class.

        WER counts *unique* erroneous word locations (Eq. 2), so repeated
        CEs at the same address contribute once.
        """
        return {
            loc
            for cls, loc in zip(self._classes, self._locations)
            if cls is error_class
        }


# ---------------------------------------------------------------------------
# The cell array.
# ---------------------------------------------------------------------------
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
    #: retention calibration; tests may substitute a weaker population so
    #: failures become observable in tiny arrays
    calibration: DramCalibration = DEFAULT_CALIBRATION
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trefp_s <= 0:
            raise ConfigurationError("trefp_s must be positive")
        if self.interference_strength < 0:
            raise ConfigurationError("interference_strength must be non-negative")


#: Locations accepted by the batch API: CellLocation objects or word indices.
BatchLocations = Union[Sequence[CellLocation], np.ndarray]


@dataclass(frozen=True)
class BatchReadResult:
    """Outcome of one burst read of many words.

    ``locations`` mirrors whatever addressing the read used: a sequence
    of :class:`CellLocation` objects, or a word-index array.
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

    def __init__(self, config: CellArrayConfig) -> None:
        self.config = config
        self.geometry = config.geometry
        self._rng = np.random.default_rng(self.config.seed)
        self._code = SecdedCode()

        n_words = self.geometry.total_words
        if n_words > MAX_WORDS:
            raise ConfigurationError(
                f"cell array of {n_words} words is over the {MAX_WORDS}-word "
                "limit; use the statistical model for full-scale geometries"
            )
        cells = (n_words, units.CODEWORD_BITS)
        self.codewords = np.zeros((n_words, 2), dtype=np.uint64)
        self.base_retention_s = sample_retention_times(
            n_words * units.CODEWORD_BITS,
            self.config.temperature_c,
            self.config.vdd_v,
            calibration=self.config.calibration.retention,
            rng=self._rng,
        ).reshape(cells)
        # VRT cells: occasionally an order of magnitude weaker.
        self.vrt_mask = pack_bits(self._rng.random(cells) < VRT_FRACTION)
        #: discharge polarity of each cell (true-cell decays to 0, anti-cell to 1)
        self.discharge_value = pack_bits(
            self._rng.random(cells) >= TRUE_CELL_FRACTION
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
                (word_index(self.geometry, location) for location in locations),
                dtype=np.int64,
                count=len(locations),
            )
        if np.unique(indices).size != indices.size:
            raise ConfigurationError(
                "batch operations require unique locations: duplicated words "
                "would alias the in-place recharge/scrub bookkeeping"
            )
        return indices

    def _location(self, locations: BatchLocations, words: np.ndarray, row: int) -> CellLocation:
        """The :class:`CellLocation` of row ``row`` of a batch."""
        if isinstance(locations, np.ndarray):
            return cell_from_word_index(self.geometry, int(words[row]))
        return locations[row]

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
        a bincount accumulates duplicate hits from the same batch.
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

    # -- memory operations ---------------------------------------------------
    def write_batch(
        self, locations: BatchLocations, data_values: Union[np.ndarray, Sequence[int]]
    ) -> None:
        """Store one 64-bit value per location in a single burst.

        Writing recharges each word and resets its history, then the
        burst's row-hammer disturbances land on the neighbouring rows.
        """
        words = self._word_indices(locations)
        data = np.asarray(data_values)
        if data.shape != (words.size,):
            raise ConfigurationError(
                "locations and data_values must have equal length"
            )
        self.codewords[words] = self._code.encode_packed(data)
        self._recharge(words)
        self.word_written[words] = True
        self._disturb_neighbour_rows(words)

    def read_batch(
        self, locations: BatchLocations, workload: str = ""
    ) -> BatchReadResult:
        """Read a burst of words: decay, SECDED decode, scrub, log.

        Reading senses whole rows, so every word is recharged; single-bit
        errors are corrected in place (scrub-on-read) while multi-bit
        corruption persists until rewritten.
        """
        words = self._word_indices(locations)
        unwritten = np.flatnonzero(~self.word_written[words])
        if unwritten.size:
            culprit = self._location(locations, words, int(unwritten[0]))
            raise SimulationError(f"read of unwritten location {culprit}")

        self._record_exposure(words)
        leaked = self._effective_retention(words) < self.max_exposure_s[words][:, None]
        leak_lanes = pack_bits(leaked)
        decayed = (self.codewords[words] & ~leak_lanes) | (
            self.discharge_value[words] & leak_lanes
        )
        decode = self._code.decode_batch(decayed)

        error_rows = np.flatnonzero(decode.error_codes != _NO_ERROR_CODE)
        if error_rows.size:
            self.error_log.append_batch(
                error_classes=_ERROR_CLASS_BY_CODE[decode.error_codes[error_rows]].tolist(),
                locations=[self._location(locations, words, int(row)) for row in error_rows],
                timestamp_s=self.now_s,
                workload=workload,
            )

        # Scrub-on-read: corrected words are written back as valid
        # codewords; multi-bit corruption persists (the data is lost until
        # rewritten).  Clean words are already valid codewords.
        scrubbed = decode.error_codes == _CORRECTED_CODE
        if scrubbed.any():
            decayed[scrubbed] = self._code.encode_packed(decode.data_words[scrubbed])
        self.codewords[words] = decayed
        self._recharge(words)
        self._disturb_neighbour_rows(words)

        kept = locations if isinstance(locations, np.ndarray) else list(locations)
        return BatchReadResult(locations=kept, decode=decode)

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

    # -- bulk helpers --------------------------------------------------------
    def fill(
        self, data_values: List[int], locations: Optional[List[CellLocation]] = None
    ) -> List[CellLocation]:
        """Write a list of values to consecutive locations; returns the locations."""
        if locations is None:
            locations = [
                cell_from_word_index(self.geometry, i) for i in range(len(data_values))
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
