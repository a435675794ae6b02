"""Error records and the error log maintained by the management processor.

On the X-Gene2, the SLIMpro management core reports every ECC event to
the kernel together with the DIMM, rank, bank, row and column where it
occurred.  :class:`ErrorLog` is the software equivalent: an append-only
log that the characterization framework queries to compute WER and PUE.

The log stores events in columnar form (parallel class/location/
timestamp/workload columns): the cell-array simulator's burst reads
append a whole batch of events per sweep via :meth:`ErrorLog.append_batch`
without constructing one :class:`ErrorRecord` object per event — the
per-object cost used to dominate saturated sweeps where nearly every
word errors.  ``ErrorRecord`` views are materialised lazily (and cached)
only when a caller iterates the log; the WER query (unique erroneous
words) runs straight off the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set

from repro.dram.ecc import ErrorClass
from repro.dram.geometry import CellLocation, RankLocation
from repro.errors import ConfigurationError


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
    """Append-only columnar log of ECC events with the queries the study needs.

    Events live in parallel columns; :class:`ErrorRecord` objects are
    materialised lazily for iteration and cached until the log grows.
    Producers (the cell-array reads) use :meth:`append_batch`, which
    validates once per batch instead of once per event.
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
        return iter(self._all_records())

    def _all_records(self) -> List[ErrorRecord]:
        if self._materialized is None:
            self._materialized = [
                ErrorRecord(
                    error_class=cls, location=loc, timestamp_s=t, workload=wl
                )
                for cls, loc, t, wl in zip(
                    self._classes, self._locations, self._timestamps, self._workloads
                )
            ]
        return self._materialized

    def append_batch(
        self,
        error_classes: Sequence[ErrorClass],
        locations: Sequence[CellLocation],
        timestamp_s: float,
        workload: str = "",
    ) -> None:
        """Append one burst's events without per-event record objects.

        All events of a burst share one timestamp and workload, so the
        :class:`ErrorRecord` invariants are checked once for the whole
        batch.
        """
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
        """Distinct 64-bit word locations affected by a given error class.

        WER counts *unique* erroneous word locations (Eq. 2), so repeated
        CEs at the same address contribute once.
        """
        return {
            loc
            for cls, loc in zip(self._classes, self._locations)
            if cls is error_class
        }
