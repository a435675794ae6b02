"""Dataset assembly: campaign measurements + profiles -> model training data.

This is the "Build data set" step of Fig. 3: every characterization
measurement is joined with the program features of the workload that
produced it.  Two dataset flavours exist:

* :func:`build_wer_dataset` — one row per (workload, operating point,
  rank), target = the per-rank WER;
* :func:`build_pue_dataset` — one row per (workload, refresh period) of
  the 70 C study, target = the measured PUE.

An :class:`ErrorDataset` has one backing, a :class:`ColumnarDataset`
(operating-point matrix, target vector and dictionary-encoded
group/rank codes).  Both builders stream the campaign's
:class:`~repro.characterization.metrics.WerColumnStore` columns straight
into it, hand-built sample lists are encoded into it once
(:meth:`ColumnarDataset.from_samples`), and the program-feature join is
one fancy-indexing pass over a per-workload feature table.  ``Sample``
objects exist only as a read-only view materialized when a caller
iterates.  The per-sample builders and the row-by-row matrix assembly
live in ``repro.core.reference`` as the independent equivalence oracle;
the columnar path must produce bit-identical ``(X, y, groups)``
matrices (pinned by ``tests/test_columnar_dataset.py`` and
``benchmarks/test_dataset_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.campaign import CampaignResult
from repro.core.features import FeatureSet
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import DataError
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class Sample:
    """One labelled training sample."""

    workload: str
    operating_point: OperatingPoint
    target: float
    program_features: Dict[str, float]
    rank: Optional[RankLocation] = None

    def input_row(self, feature_set: FeatureSet) -> np.ndarray:
        return feature_set.build_row(self.operating_point, self.program_features)


class ColumnarDataset:
    """Columnar training data: feature columns, target vector, group codes.

    Rows live in parallel numpy columns — workloads and ranks are
    dictionary-encoded against small code tables, the operating point is
    a ``(n, 3)`` float matrix and the target a float vector.
    :meth:`matrices` assembles ``(X, y, groups)`` with one vectorized
    profile-feature join instead of one Python row per sample.
    """

    def __init__(
        self,
        workloads: Sequence[str],
        workload_codes: np.ndarray,
        operating_columns: np.ndarray,
        targets: np.ndarray,
        features_by_workload: Mapping[str, Mapping[str, float]],
        ranks: Sequence[RankLocation] = (),
        rank_codes: Optional[np.ndarray] = None,
    ) -> None:
        self.workloads = list(workloads)
        self.workload_codes = np.asarray(workload_codes, dtype=np.int64)
        self.operating_columns = np.asarray(operating_columns, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.features_by_workload = dict(features_by_workload)
        self.ranks = list(ranks)
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
            raise DataError("columnar dataset columns must have one entry per row")

    @classmethod
    def from_samples(cls, samples: Sequence[Sample]) -> "ColumnarDataset":
        """Encode a :class:`Sample` sequence into columns in one pass.

        Program features are stored once per workload, so every sample of
        a workload must carry the same ``program_features``; a conflict
        raises :class:`DataError` instead of silently keeping the first.
        """
        n = len(samples)
        workloads: List[str] = []
        workload_index: Dict[str, int] = {}
        features: Dict[str, Mapping[str, float]] = {}
        ranks: List[RankLocation] = []
        rank_index: Dict[RankLocation, int] = {}
        workload_codes = np.empty(n, dtype=np.int64)
        rank_codes = np.full(n, -1, dtype=np.int64)
        operating = np.empty((n, 3), dtype=np.float64)
        targets = np.empty(n, dtype=np.float64)
        for i, sample in enumerate(samples):
            code = workload_index.get(sample.workload)
            if code is None:
                code = workload_index[sample.workload] = len(workloads)
                workloads.append(sample.workload)
                features[sample.workload] = sample.program_features
            elif (
                sample.program_features is not features[sample.workload]
                and sample.program_features != features[sample.workload]
            ):
                raise DataError(
                    f"samples of workload {sample.workload!r} carry "
                    "conflicting program features"
                )
            workload_codes[i] = code
            if sample.rank is not None:
                rank_code = rank_index.get(sample.rank)
                if rank_code is None:
                    rank_code = rank_index[sample.rank] = len(ranks)
                    ranks.append(sample.rank)
                rank_codes[i] = rank_code
            op = sample.operating_point
            operating[i] = (op.trefp_s, op.vdd_v, op.temperature_c)
            targets[i] = sample.target
        return cls(workloads, workload_codes, operating, targets, features,
                   ranks, rank_codes)

    def __len__(self) -> int:
        return len(self.targets)

    # ------------------------------------------------------------------
    def matrices(self, feature_set: FeatureSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(X, y, groups)`` via one fancy-indexed profile join."""
        if not len(self):
            raise DataError("dataset is empty")
        program = feature_set.program_matrix(self.workloads, self.features_by_workload)
        X = np.concatenate(
            [self.operating_columns, program[self.workload_codes]], axis=1
        )
        y = self.targets.copy()
        groups = np.asarray(self.workloads)[self.workload_codes]
        return X, y, groups

    def subset(self, mask: np.ndarray) -> "ColumnarDataset":
        """Row subset sharing the code tables (no per-row objects)."""
        return ColumnarDataset(
            workloads=self.workloads,
            workload_codes=self.workload_codes[mask],
            operating_columns=self.operating_columns[mask],
            targets=self.targets[mask],
            features_by_workload=self.features_by_workload,
            ranks=self.ranks,
            rank_codes=self.rank_codes[mask],
        )

    # ------------------------------------------------------------------
    def workloads_present(self) -> List[str]:
        return sorted(
            self.workloads[code] for code in np.unique(self.workload_codes).tolist()
        )

    def ranks_present(self) -> List[RankLocation]:
        codes = np.unique(self.rank_codes)
        return sorted(self.ranks[code] for code in codes[codes >= 0].tolist())

    def targets_by_workload(self) -> Dict[str, List[float]]:
        """Targets grouped by workload, keys in first-appearance order."""
        codes = self.workload_codes
        _, first = np.unique(codes, return_index=True)
        return {
            self.workloads[code]: self.targets[codes == code].tolist()
            for code in codes[np.sort(first)].tolist()
        }

    def materialize_samples(self) -> List[Sample]:
        """Build the per-row :class:`Sample` view (only when iterated)."""
        names = self.workloads
        ranks = self.ranks
        features = self.features_by_workload
        return [
            Sample(
                workload=names[wcode],
                operating_point=OperatingPoint(
                    trefp_s=trefp, vdd_v=vdd, temperature_c=temperature
                ),
                target=target,
                program_features=features[names[wcode]],
                rank=ranks[rcode] if rcode >= 0 else None,
            )
            for wcode, (trefp, vdd, temperature), target, rcode in zip(
                self.workload_codes.tolist(), self.operating_columns.tolist(),
                self.targets.tolist(), self.rank_codes.tolist(),
            )
        ]


class ErrorDataset:
    """A set of labelled samples with matrix/group accessors.

    Backed by one :class:`ColumnarDataset`: matrices, rank filters and
    group reductions run as vector operations.  Campaign builders pass
    ``columns``; hand-built datasets pass ``samples``, which are encoded
    into columns once.  ``samples`` is a read-only tuple materialized
    from the columns on first access.
    """

    def __init__(
        self,
        samples: Optional[Sequence[Sample]] = None,
        columns: Optional[ColumnarDataset] = None,
    ) -> None:
        if samples is not None and columns is not None:
            raise DataError("pass either samples or columns, not both")
        self._columns = (
            columns if columns is not None else ColumnarDataset.from_samples(samples or ())
        )
        self._samples: Optional[Tuple[Sample, ...]] = None

    # ------------------------------------------------------------------
    @property
    def samples(self) -> Tuple[Sample, ...]:
        if self._samples is None:
            self._samples = tuple(self._columns.materialize_samples())
        return self._samples

    def columns(self) -> ColumnarDataset:
        """The columnar backing, for callers that want raw columns."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        return self._columns.workloads_present()

    def ranks(self) -> List[RankLocation]:
        """Distinct rank locations, sorted.

        Raises :class:`DataError` when no sample carries a rank — a
        PUE-only (or empty) dataset has no per-rank structure, and
        silently returning ``[]`` used to make per-rank training loops
        vanish without a trace.
        """
        found = self._columns.ranks_present()
        if not found:
            raise DataError(
                "dataset contains no rank-annotated samples "
                "(PUE datasets are rank-less)"
            )
        return found

    def filter_rank(self, rank: RankLocation) -> "ErrorDataset":
        """Samples belonging to one DIMM/rank (per-module models)."""
        columns = self._columns
        if rank in columns.ranks:
            mask = columns.rank_codes == columns.ranks.index(rank)
        else:
            mask = np.zeros(len(columns), dtype=bool)
        if not mask.any():
            raise DataError(f"no samples for rank {rank.label}")
        return ErrorDataset(columns=columns.subset(mask))

    def matrices(self, feature_set: FeatureSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (X, y, groups) where groups are workload names."""
        return self._columns.matrices(feature_set)

    def targets_by_workload(self) -> Dict[str, List[float]]:
        return self._columns.targets_by_workload()


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
    array-wise, and no ``WerMeasurement``/``Sample`` objects are built.
    """
    telemetry = get_telemetry()
    with telemetry.span("dataset.build_wer"):
        store = campaign.wer_columns()
        if not len(store):
            raise DataError("campaign contains no WER measurements")
        names = store.workloads
        resolved = _profiles_for(sorted(names), profiles)
        rows = store.rows
        columns = ColumnarDataset(
            workloads=names,
            workload_codes=rows["workload"],
            operating_columns=np.column_stack(
                (rows["trefp_s"], rows["vdd_v"], rows["temperature_c"])
            ),
            targets=np.array(rows["wer"]),
            features_by_workload={name: resolved[name].features for name in names},
            ranks=store.ranks,
            rank_codes=rows["rank"],
        )
        if telemetry.enabled:
            telemetry.incr("dataset.wer_rows", len(columns))
            telemetry.observe_array("dataset.wer_targets", columns.targets)
        return ErrorDataset(columns=columns)


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
        columns = ColumnarDataset(
            workloads=names,
            workload_codes=workload_codes,
            operating_columns=operating,
            targets=targets,
            features_by_workload={name: resolved[name].features for name in names},
        )
        if telemetry.enabled:
            telemetry.incr("dataset.pue_rows", len(columns))
            telemetry.observe_array("dataset.pue_targets", columns.targets)
        return ErrorDataset(columns=columns)
