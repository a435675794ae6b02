"""DRAM error metrics: WER (Eq. 2) and PUE (Eq. 3).

Besides the scalar metric definitions and the per-point UE counts
(:class:`PueSummary`), this module hosts :class:`WerColumnStore` — the
one representation of a campaign's per-rank WER measurements, on which
the figure-level aggregations (per-workload, per-rank) run as masked
vector reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.dram.geometry import RankLocation
from repro.errors import CharacterizationError, DataError


def probability_of_uncorrectable(ue_runs: int, total_runs: int) -> float:
    """PUE = N_UE / N_EXP (Eq. 3): fraction of runs that triggered a UE."""
    if total_runs <= 0:
        raise DataError("total_runs must be positive")
    if not 0 <= ue_runs <= total_runs:
        raise DataError("ue_runs must lie in [0, total_runs]")
    return ue_runs / total_runs


@dataclass
class PueSummary:
    """UE counts of one (workload, operating point) of the UE study.

    ``crashes_by_rank`` holds only ranks with at least one crash; its
    counts sum to ``crashed_runs``.
    """

    workload: str
    trefp_s: float
    temperature_c: float
    total_runs: int
    crashed_runs: int
    crashes_by_rank: Dict[RankLocation, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.crashed_runs <= self.total_runs:
            raise DataError("crashed_runs must lie in [0, total_runs]")
        if any(count < 1 for count in self.crashes_by_rank.values()):
            raise DataError("crashes_by_rank may only hold ranks that crashed")
        if sum(self.crashes_by_rank.values()) != self.crashed_runs:
            raise DataError("crashes_by_rank must sum to crashed_runs")

    @property
    def pue(self) -> float:
        return probability_of_uncorrectable(self.crashed_runs, self.total_runs)


class WerColumnStore:
    """Per-rank WER measurements as columns.

    ``rows`` is one structured numpy array: workload and rank
    dictionary-encoded as integer codes into :attr:`workloads` and
    :attr:`ranks`, operating point and WER as float64 columns.  Every
    aggregation is a masked vector reduction.  Group means are taken with
    ``np.mean`` over the masked values in row order, and group keys are
    emitted in first-appearance order.

    A store is built straight from the grid engine's sample arrays
    (:meth:`from_grid`) and merged block-wise (:meth:`concat`); a sweep
    never materializes per-measurement objects.
    """

    DTYPE = np.dtype([
        ("workload", np.int32),
        ("trefp_s", np.float64),
        ("vdd_v", np.float64),
        ("temperature_c", np.float64),
        ("rank", np.int32),
        ("wer", np.float64),
    ])

    def __init__(
        self,
        workloads: Sequence[str],
        ranks: Sequence[RankLocation],
        rows: np.ndarray,
    ) -> None:
        """A store over ``rows`` (:attr:`DTYPE`) and its code tables."""
        self._workloads = list(workloads)
        self._ranks = list(ranks)
        self.rows = rows

    @classmethod
    def empty(cls) -> "WerColumnStore":
        """A store with no measurements."""
        return cls([], [], np.empty(0, dtype=cls.DTYPE))

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
        a campaign records its per-rank measurements in.  ``wer``'s
        rank axis must already follow ``ranks``.
        """
        if wer.ndim != 3 or wer.shape[2] != len(ranks) or wer.shape[0] != len(ops):
            raise DataError(
                f"wer grid of shape {wer.shape} does not match "
                f"{len(ops)} operating points x {len(ranks)} ranks"
            )
        if (wer < 0).any():
            raise DataError("WER cannot be negative")
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
        return cls([workload], ranks, rows)

    @classmethod
    def concat(cls, stores: Sequence["WerColumnStore"]) -> "WerColumnStore":
        """Merge stores block-wise, remapping codes to first-appearance order."""
        stores = list(stores)
        if not stores:
            return cls.empty()
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
        return cls(workloads, ranks, np.concatenate(pieces))

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
