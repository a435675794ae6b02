"""Dataset assembly: campaign measurements + profiles -> model training data.

This is the "Build data set" step of Fig. 3: every characterization
measurement is joined with the program features of the workload that
produced it.  Two dataset flavours exist:

* :func:`build_wer_dataset` — one row per (workload, operating point,
  rank), target = the per-rank WER;
* :func:`build_pue_dataset` — one row per (workload, refresh period) of
  the 70 C study, target = the measured PUE.

:meth:`ErrorDataset.rank_matrices` views a WER dataset with the ranks as
target columns — one row per (workload, operating point), one column
per rank — which is what the WER model fits.

An :class:`ErrorDataset` holds the rows as columns: the operating-point
matrix, the target vector and dictionary-encoded workload/rank codes.
Both builders stream the campaign's
:class:`~repro.characterization.metrics.WerColumnStore` columns straight
into it, and the program-feature join is one fancy-indexing pass over a
per-workload feature table.  The per-row builders and the row-by-row
matrix assembly live with the tests (``tests/oracles/dataset.py``) as
the independent equivalence oracle; the columnar path must produce
bit-identical ``(X, y, groups)`` matrices (pinned by
``tests/test_columnar_dataset.py`` and
``benchmarks/test_dataset_throughput.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.campaign import CampaignResult
from repro.core.features import FeatureSet
from repro.dram.geometry import RankLocation
from repro.errors import DataError
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload
from repro.telemetry import get_telemetry


class ErrorDataset:
    """Columnar training data: operating points, targets and group codes.

    Rows live in parallel numpy columns.  Workloads and ranks are
    dictionary-encoded against the ``workload_table`` and ``rank_table``
    code tables (a rank code of ``-1`` marks a rank-less row), the
    operating point is an ``(n, 3)`` float matrix of (TREFP, VDD, TEMP)
    and the target a float vector.  Program features are stored once per
    workload, and :meth:`matrices` joins them with one fancy-indexing pass.
    """

    def __init__(
        self,
        workload_table: Sequence[str],
        workload_codes: np.ndarray,
        operating_columns: np.ndarray,
        targets: np.ndarray,
        features_by_workload: Mapping[str, Mapping[str, float]],
        rank_table: Sequence[RankLocation] = (),
        rank_codes: Optional[np.ndarray] = None,
    ) -> None:
        self.workload_table = list(workload_table)
        self.workload_codes = np.asarray(workload_codes, dtype=np.int64)
        self.operating_columns = np.asarray(operating_columns, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.features_by_workload = dict(features_by_workload)
        self.rank_table = list(rank_table)
        self.rank_codes = (
            np.asarray(rank_codes, dtype=np.int64)
            if rank_codes is not None
            else np.full(len(self.targets), -1, dtype=np.int64)
        )
        n = len(self.targets)
        if (
            len(self.workload_codes) != n
            or len(self.rank_codes) != n
            or self.operating_columns.shape != (n, 3)
        ):
            raise DataError("dataset columns must have one entry per row")

    def __len__(self) -> int:
        return len(self.targets)

    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        """Distinct workloads with at least one row, sorted."""
        # bincount, not a plain np.unique: that imports numpy.ma.
        return sorted(
            self.workload_table[code]
            for code in np.flatnonzero(np.bincount(self.workload_codes)).tolist()
        )

    def ranks(self) -> List[RankLocation]:
        """Distinct rank locations, sorted.

        Raises :class:`DataError` when no row carries a rank — a PUE-only
        (or empty) dataset has no per-rank structure, and silently
        returning ``[]`` used to make per-rank training loops vanish
        without a trace.
        """
        # Unranked rows carry code -1.
        codes = np.flatnonzero(np.bincount(self.rank_codes + 1)[1:])
        found = sorted(self.rank_table[code] for code in codes.tolist())
        if not found:
            raise DataError(
                "dataset contains no rank-annotated rows "
                "(PUE datasets are rank-less)"
            )
        return found

    def subset(self, mask: np.ndarray) -> "ErrorDataset":
        """Row subset sharing the code tables and the feature table."""
        return ErrorDataset(
            workload_table=self.workload_table,
            workload_codes=self.workload_codes[mask],
            operating_columns=self.operating_columns[mask],
            targets=self.targets[mask],
            features_by_workload=self.features_by_workload,
            rank_table=self.rank_table,
            rank_codes=self.rank_codes[mask],
        )

    def filter_rank(self, rank: RankLocation) -> "ErrorDataset":
        """Rows belonging to one DIMM/rank (per-module models)."""
        if rank in self.rank_table:
            mask = self.rank_codes == self.rank_table.index(rank)
        else:
            mask = np.zeros(len(self), dtype=bool)
        if not mask.any():
            raise DataError(f"no samples for rank {rank.label}")
        return self.subset(mask)

    # ------------------------------------------------------------------
    def matrices(self, feature_set: FeatureSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(X, y, groups)`` where groups are workload names."""
        if not len(self):
            raise DataError("dataset is empty")
        program = feature_set.program_matrix(
            self.workload_table, self.features_by_workload
        )
        X = np.concatenate(
            [self.operating_columns, program[self.workload_codes]], axis=1
        )
        groups = np.asarray(self.workload_table)[self.workload_codes]
        return X, self.targets.copy(), groups

    def rank_matrices(
        self,
        feature_set: FeatureSet,
        ranks: Optional[Sequence[RankLocation]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(X, Y, groups)`` with the ranks as target columns.

        ``Y`` has shape ``(n, R)``, one column per rank of ``ranks``
        (default: :meth:`ranks`, sorted); ``X`` and ``groups`` are the
        rows every rank shares.  Raises :class:`DataError` when the
        ranks' rows are not aligned by (workload, operating point).
        """
        rank_list = list(ranks) if ranks is not None else self.ranks()
        if not rank_list:
            raise DataError("rank_matrices() requires at least one rank")
        per_rank = [self.filter_rank(rank) for rank in rank_list]
        first = per_rank[0]
        for rank, rows in zip(rank_list[1:], per_rank[1:]):
            if not (
                np.array_equal(rows.workload_codes, first.workload_codes)
                and np.array_equal(rows.operating_columns, first.operating_columns)
            ):
                raise DataError(
                    f"rank {rank.label}'s rows are not aligned with rank "
                    f"{rank_list[0].label}'s by (workload, operating point)"
                )
        X, _y, groups = first.matrices(feature_set)
        return X, np.column_stack([rows.targets for rows in per_rank]), groups


def _profiles_for(
    workloads: Sequence[str], profiles: Optional[Dict[str, WorkloadProfile]]
) -> Dict[str, WorkloadProfile]:
    if profiles is not None:
        missing = [w for w in workloads if w not in profiles]
        if missing:
            raise DataError(f"profiles missing for workloads: {missing}")
        return profiles
    return {workload: profile_workload(workload) for workload in workloads}


def build_wer_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
) -> ErrorDataset:
    """Join per-rank WER measurements with program features (columnar).

    The campaign's ``WerColumnStore`` columns become the dataset columns
    directly — codes, operating points and targets are shared or copied
    array-wise, and no per-measurement objects are built.
    """
    telemetry = get_telemetry()
    with telemetry.span("dataset.build_wer"):
        store = campaign.wer_columns()
        if not len(store):
            raise DataError("campaign contains no WER measurements")
        names = store.workloads
        resolved = _profiles_for(sorted(names), profiles)
        rows = store.rows
        dataset = ErrorDataset(
            workload_table=names,
            workload_codes=rows["workload"],
            operating_columns=np.column_stack(
                (rows["trefp_s"], rows["vdd_v"], rows["temperature_c"])
            ),
            targets=np.array(rows["wer"]),
            features_by_workload={name: resolved[name].features for name in names},
            rank_table=store.ranks,
            rank_codes=rows["rank"],
        )
        if telemetry.enabled:
            telemetry.incr("dataset.wer_rows", len(dataset))
            telemetry.observe_array("dataset.wer_targets", dataset.targets)
        return dataset


def build_pue_dataset(
    campaign: CampaignResult,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
    vdd_v: float = 1.428,
) -> ErrorDataset:
    """Join the 70 C UE study with program features (target = PUE)."""
    telemetry = get_telemetry()
    with telemetry.span("dataset.build_pue"):
        summaries = campaign.pue_summaries
        if not summaries:
            raise DataError("campaign contains no UE observations")
        names: List[str] = []
        codes_by_name: Dict[str, int] = {}
        workload_codes = np.empty(len(summaries), dtype=np.int64)
        operating = np.empty((len(summaries), 3), dtype=np.float64)
        targets = np.empty(len(summaries), dtype=np.float64)
        for i, summary in enumerate(summaries):
            code = codes_by_name.get(summary.workload)
            if code is None:
                code = codes_by_name[summary.workload] = len(names)
                names.append(summary.workload)
            workload_codes[i] = code
            operating[i] = (summary.trefp_s, vdd_v, summary.temperature_c)
            targets[i] = summary.pue
        resolved = _profiles_for(sorted(names), profiles)
        dataset = ErrorDataset(
            workload_table=names,
            workload_codes=workload_codes,
            operating_columns=operating,
            targets=targets,
            features_by_workload={name: resolved[name].features for name in names},
        )
        if telemetry.enabled:
            telemetry.incr("dataset.pue_rows", len(dataset))
            telemetry.observe_array("dataset.pue_targets", dataset.targets)
        return dataset
