"""DRAM error metrics: WER (Eq. 2) and PUE (Eq. 3).

Besides the scalar metric definitions and the flat per-run record types,
this module hosts :class:`WerColumnStore` — the columnar backing store a
:class:`~repro.characterization.campaign.CampaignResult` builds over its
``WerMeasurement`` list so the figure-level aggregations (per-workload,
per-rank, spreads) run as masked vector reductions instead of Python
list scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.dram.geometry import RankLocation
from repro.errors import CharacterizationError, DataError


def word_error_rate(unique_ce_words: int, footprint_words: int) -> float:
    """WER = N_CE / MEMSIZE (Eq. 2): unique erroneous words per allocated word."""
    if footprint_words <= 0:
        raise DataError("footprint_words must be positive")
    if unique_ce_words < 0:
        raise DataError("unique_ce_words must be non-negative")
    if unique_ce_words > footprint_words:
        raise DataError("cannot have more erroneous words than allocated words")
    return unique_ce_words / footprint_words


def probability_of_uncorrectable(ue_runs: int, total_runs: int) -> float:
    """PUE = N_UE / N_EXP (Eq. 3): fraction of runs that triggered a UE."""
    if total_runs <= 0:
        raise DataError("total_runs must be positive")
    if not 0 <= ue_runs <= total_runs:
        raise DataError("ue_runs must lie in [0, total_runs]")
    return ue_runs / total_runs


@dataclass
class WerMeasurement:
    """A per-rank WER measurement of one characterization run."""

    workload: str
    trefp_s: float
    vdd_v: float
    temperature_c: float
    rank: RankLocation
    wer: float

    def __post_init__(self) -> None:
        if self.wer < 0:
            raise DataError("WER cannot be negative")


@dataclass
class UeObservation:
    """Outcome of one run of the UE study: did the run crash, and where."""

    workload: str
    trefp_s: float
    temperature_c: float
    crashed: bool
    rank: Optional[RankLocation] = None

    def __post_init__(self) -> None:
        if self.crashed and self.rank is None:
            raise DataError("a crashed run must name the offending DIMM/rank")
        if not self.crashed and self.rank is not None:
            raise DataError("a clean run cannot name an offending DIMM/rank")


@dataclass
class PueSummary:
    """Aggregated UE statistics for one (workload, operating point)."""

    workload: str
    trefp_s: float
    temperature_c: float
    total_runs: int = 0
    crashed_runs: int = 0
    crashes_by_rank: Dict[RankLocation, int] = field(default_factory=dict)

    def add(self, observation: UeObservation) -> None:
        if (observation.workload, observation.trefp_s, observation.temperature_c) != (
            self.workload, self.trefp_s, self.temperature_c
        ):
            raise DataError("observation does not belong to this summary")
        self.total_runs += 1
        if observation.crashed:
            self.crashed_runs += 1
            self.crashes_by_rank[observation.rank] = (
                self.crashes_by_rank.get(observation.rank, 0) + 1
            )

    @property
    def pue(self) -> float:
        return probability_of_uncorrectable(self.crashed_runs, self.total_runs)


class WerColumnStore:
    """Columnar view of a sequence of :class:`WerMeasurement` records.

    Measurements are packed once into a structured numpy array (workload
    and rank dictionary-encoded as integer codes, operating point and WER
    as float64 columns); every aggregation is then a masked vector
    reduction.  Group means are taken with ``np.mean`` over the masked
    values in record order, so they match the old list-scan
    implementations bit for bit, and group keys are emitted in first-
    appearance order — the order the list scans produced.

    Besides wrapping an existing record list, a store can be built
    straight from the grid engine's sample arrays (:meth:`from_grid`) and
    merged block-wise (:meth:`concat`), so a campaign sweep never has to
    materialize per-record objects; :meth:`to_measurements` reconstructs
    the exact record list on demand.
    """

    DTYPE = np.dtype([
        ("workload", np.int32),
        ("trefp_s", np.float64),
        ("vdd_v", np.float64),
        ("temperature_c", np.float64),
        ("rank", np.int32),
        ("wer", np.float64),
    ])

    def __init__(self, measurements: Sequence[WerMeasurement]) -> None:
        self._workloads: List[str] = []
        self._ranks: List[RankLocation] = []
        workload_codes: Dict[str, int] = {}
        rank_codes: Dict[RankLocation, int] = {}
        rows = np.empty(len(measurements), dtype=self.DTYPE)
        for i, m in enumerate(measurements):
            wcode = workload_codes.get(m.workload)
            if wcode is None:
                wcode = workload_codes[m.workload] = len(self._workloads)
                self._workloads.append(m.workload)
            rcode = rank_codes.get(m.rank)
            if rcode is None:
                rcode = rank_codes[m.rank] = len(self._ranks)
                self._ranks.append(m.rank)
            rows[i] = (wcode, m.trefp_s, m.vdd_v, m.temperature_c, rcode, m.wer)
        self.rows = rows

    @classmethod
    def _from_parts(
        cls,
        workloads: Sequence[str],
        ranks: Sequence[RankLocation],
        rows: np.ndarray,
    ) -> "WerColumnStore":
        store = cls.__new__(cls)
        store._workloads = list(workloads)
        store._ranks = list(ranks)
        store.rows = rows
        return store

    @classmethod
    def from_grid(
        cls,
        workload: str,
        ops: Sequence,
        wer: np.ndarray,
        ranks: Sequence[RankLocation],
    ) -> "WerColumnStore":
        """Pack one workload's ``(points, repetitions, ranks)`` WER grid.

        Rows come out point-major, then repetition, then rank — the order
        the scalar sweep appended its per-run measurements — without
        constructing a single :class:`WerMeasurement`.  ``wer``'s rank
        axis must already follow ``ranks``.
        """
        if wer.ndim != 3 or wer.shape[2] != len(ranks) or wer.shape[0] != len(ops):
            raise DataError(
                f"wer grid of shape {wer.shape} does not match "
                f"{len(ops)} operating points x {len(ranks)} ranks"
            )
        points, repetitions, num_ranks = wer.shape
        per_point = repetitions * num_ranks
        rows = np.empty(points * per_point, dtype=cls.DTYPE)
        rows["workload"] = 0
        rows["trefp_s"] = np.repeat([op.trefp_s for op in ops], per_point)
        rows["vdd_v"] = np.repeat([op.vdd_v for op in ops], per_point)
        rows["temperature_c"] = np.repeat(
            [op.temperature_c for op in ops], per_point
        )
        rows["rank"] = np.tile(np.arange(num_ranks, dtype=np.int32),
                               points * repetitions)
        rows["wer"] = wer.reshape(-1)
        return cls._from_parts([workload], ranks, rows)

    @classmethod
    def concat(cls, stores: Sequence["WerColumnStore"]) -> "WerColumnStore":
        """Merge stores block-wise, remapping codes to first-appearance order."""
        stores = list(stores)
        if not stores:
            return cls([])
        workloads: List[str] = []
        ranks: List[RankLocation] = []
        workload_codes: Dict[str, int] = {}
        rank_codes: Dict[RankLocation, int] = {}
        pieces = []
        for store in stores:
            wmap = np.empty(max(len(store._workloads), 1), dtype=np.int32)
            for i, workload in enumerate(store._workloads):
                code = workload_codes.get(workload)
                if code is None:
                    code = workload_codes[workload] = len(workloads)
                    workloads.append(workload)
                wmap[i] = code
            rmap = np.empty(max(len(store._ranks), 1), dtype=np.int32)
            for i, rank in enumerate(store._ranks):
                code = rank_codes.get(rank)
                if code is None:
                    code = rank_codes[rank] = len(ranks)
                    ranks.append(rank)
                rmap[i] = code
            rows = store.rows.copy()
            if len(rows):
                rows["workload"] = wmap[store.rows["workload"]]
                rows["rank"] = rmap[store.rows["rank"]]
            pieces.append(rows)
        return cls._from_parts(workloads, ranks, np.concatenate(pieces))

    def to_measurements(self) -> List[WerMeasurement]:
        """Materialize the exact :class:`WerMeasurement` record list."""
        workloads = self._workloads
        ranks = self._ranks
        rows = self.rows
        return [
            WerMeasurement(
                workload=workloads[wcode], trefp_s=trefp, vdd_v=vdd,
                temperature_c=temperature, rank=ranks[rcode], wer=wer,
            )
            for wcode, trefp, vdd, temperature, rcode, wer in zip(
                rows["workload"].tolist(), rows["trefp_s"].tolist(),
                rows["vdd_v"].tolist(), rows["temperature_c"].tolist(),
                rows["rank"].tolist(), rows["wer"].tolist(),
            )
        ]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def workloads(self) -> List[str]:
        """Workload names in first-appearance order (code -> name)."""
        return list(self._workloads)

    @property
    def ranks(self) -> List[RankLocation]:
        """Rank locations in first-appearance order (code -> location)."""
        return list(self._ranks)

    # ------------------------------------------------------------------
    def point_mask(
        self, trefp_s: float, temperature_c: float, tolerance: float = 1e-9
    ) -> np.ndarray:
        """Boolean row mask selecting one operating point of the sweep."""
        return (np.abs(self.rows["trefp_s"] - trefp_s) <= tolerance) & (
            np.abs(self.rows["temperature_c"] - temperature_c) <= tolerance
        )

    def _masked_point(self, trefp_s: float, temperature_c: float) -> np.ndarray:
        mask = self.point_mask(trefp_s, temperature_c)
        if not mask.any():
            raise CharacterizationError(
                f"no WER measurements at TREFP={trefp_s}s, T={temperature_c}C"
            )
        return self.rows[mask]

    @staticmethod
    def _first_appearance(codes: np.ndarray) -> np.ndarray:
        """Unique codes ordered by their first occurrence in ``codes``."""
        _, first = np.unique(codes, return_index=True)
        return codes[np.sort(first)]

    def mean_wer_by_workload(
        self, trefp_s: float, temperature_c: float
    ) -> Dict[str, float]:
        """Per-workload mean WER at one operating point."""
        selected = self._masked_point(trefp_s, temperature_c)
        codes = selected["workload"]
        wers = selected["wer"]
        return {
            self._workloads[code]: float(np.mean(wers[codes == code]))
            for code in self._first_appearance(codes)
        }

    def mean_wer_by_workload_rank(
        self, trefp_s: float, temperature_c: float
    ) -> Dict[str, Dict[RankLocation, float]]:
        """Per-workload, per-rank mean WER at one operating point."""
        selected = self._masked_point(trefp_s, temperature_c)
        codes = selected["workload"]
        table: Dict[str, Dict[RankLocation, float]] = {}
        for code in self._first_appearance(codes):
            of_workload = selected[codes == code]
            rank_codes = of_workload["rank"]
            table[self._workloads[code]] = {
                self._ranks[rank_code]: float(
                    np.mean(of_workload["wer"][rank_codes == rank_code])
                )
                for rank_code in self._first_appearance(rank_codes)
            }
        return table


def rank_ue_distribution(summaries: Iterable[PueSummary]) -> Dict[RankLocation, float]:
    """Probability that a UE lands on each DIMM/rank, given it occurred (Fig. 9b)."""
    totals: Dict[RankLocation, int] = {}
    crashes = 0
    for summary in summaries:
        for rank, count in summary.crashes_by_rank.items():
            totals[rank] = totals.get(rank, 0) + count
            crashes += count
    if crashes == 0:
        return {}
    return {rank: count / crashes for rank, count in totals.items()}
