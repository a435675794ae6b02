"""End-to-end workload-aware predictor: the public entry point of the library.

This class packages what the paper releases as the "DRAM error behavioral
model": a trained (KNN-based by default) model that, given a workload's
program features and a target operating point, predicts the per-rank WER
and the probability of an uncorrectable error within milliseconds —
versus the hours or days a characterization campaign would take.

The prediction surface follows one signature convention (arrays in,
frozen result batch out):

* :meth:`WorkloadAwarePredictor.predict_batch` — paired ``workloads`` and
  ``operating_points`` sequences, one prediction per pair, assembled
  columnar-ly (one program-feature join + one ``predict_matrix`` call per
  model, zero per-row objects), returning a :class:`PredictionBatch`;
* :meth:`WorkloadAwarePredictor.predict_grid` — the cartesian
  workloads x TREFP x temperature x VDD surface through the same
  columnar core, returning a :class:`PredictionGrid`;
* :meth:`WorkloadAwarePredictor.predict` — the scalar convenience
  wrapper: a one-row batch unwrapped into a :class:`PredictionResult`.

The WER model is one multi-output :class:`DramErrorModel` whose target
columns are the ranks (:meth:`ErrorDataset.rank_matrices`), so every
prediction call runs one scaler pass and one model pass for all ranks —
for KNN, one neighbour search.  The oracle in ``tests/oracles/`` fits
one model per rank independently and answers grid cells one row at a
time; ``tests/test_rank_columns.py`` pins the batched paths against it
bit for bit, and ``benchmarks/test_serving_throughput.py`` sets its
speed floors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.characterization.campaign import CampaignResult
from repro.core.dataset import build_pue_dataset, build_wer_dataset
from repro.core.model import DramErrorModel, ModelConfig
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import ConfigurationError, NotFittedError
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload
from repro.telemetry import get_telemetry


#: Sequence-of-workloads argument: registry names and/or profiles.
WorkloadArg = Union[str, WorkloadProfile]


@dataclass
class PredictionResult:
    """One prediction: per-rank WER, memory-wide WER, PUE and the latency."""

    workload: str
    operating_point: OperatingPoint
    wer_by_rank: Dict[RankLocation, float]
    pue: Optional[float]
    latency_s: float

    @property
    def memory_wer(self) -> float:
        values = list(self.wer_by_rank.values())
        return sum(values) / len(values)


@dataclass(frozen=True, eq=False)
class PredictionBatch:
    """Predictions for ``n`` (workload, operating point) pairs.

    ``wer`` has one row per rank and one column per pair;
    ``operating_columns`` is the ``(n, 3)`` matrix of
    ``(trefp_s, vdd_v, temperature_c)`` the predictions were made at.
    Per-pair :class:`PredictionResult` views are materialized only on
    :meth:`result` / iteration.
    """

    workloads: Tuple[str, ...]
    operating_columns: np.ndarray
    ranks: Tuple[RankLocation, ...]
    wer: np.ndarray
    pue: Optional[np.ndarray]
    latency_s: float

    def __len__(self) -> int:
        return len(self.workloads)

    @property
    def memory_wer(self) -> np.ndarray:
        """Memory-wide WER (mean over ranks), one entry per pair."""
        return self.wer.mean(axis=0)

    def result(self, index: int) -> PredictionResult:
        """Materialize one pair as a scalar :class:`PredictionResult`."""
        trefp, vdd, temperature = self.operating_columns[index]
        return PredictionResult(
            workload=self.workloads[index],
            operating_point=OperatingPoint(
                trefp_s=float(trefp), vdd_v=float(vdd),
                temperature_c=float(temperature),
            ),
            wer_by_rank={
                rank: float(self.wer[r, index]) for r, rank in enumerate(self.ranks)
            },
            pue=float(self.pue[index]) if self.pue is not None else None,
            latency_s=self.latency_s,
        )

    def __iter__(self) -> Iterator[PredictionResult]:
        return (self.result(index) for index in range(len(self)))


@dataclass(frozen=True, eq=False)
class PredictionGrid:
    """A whole workloads x TREFP x temperature x VDD prediction surface.

    ``wer`` is shaped ``(n_ranks, n_workloads, n_trefp, n_temperature,
    n_vdd)`` and ``pue`` (when the predictor has a PUE model)
    ``(n_workloads, n_trefp, n_temperature, n_vdd)``; axis order matches
    the argument order of :meth:`WorkloadAwarePredictor.predict_grid`.
    """

    workloads: Tuple[str, ...]
    trefp_s: Tuple[float, ...]
    temperature_c: Tuple[float, ...]
    vdd_v: Tuple[float, ...]
    ranks: Tuple[RankLocation, ...]
    wer: np.ndarray
    pue: Optional[np.ndarray]
    latency_s: float

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        """(workloads, TREFP, temperature, VDD) cell counts."""
        return (len(self.workloads), len(self.trefp_s),
                len(self.temperature_c), len(self.vdd_v))

    @property
    def num_predictions(self) -> int:
        n_workloads, n_trefp, n_temperature, n_vdd = self.shape
        return n_workloads * n_trefp * n_temperature * n_vdd

    @property
    def memory_wer(self) -> np.ndarray:
        """Memory-wide WER surface (mean over ranks)."""
        return self.wer.mean(axis=0)


@dataclass
class PredictorConfig:
    """Model choices for the end-to-end predictor."""

    wer_family: str = "knn"
    wer_feature_set: str = "set1"
    pue_family: str = "knn"
    pue_feature_set: str = "set2"


class WorkloadAwarePredictor:
    """Train once on a campaign, then predict any workload in milliseconds."""

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self.config = config or PredictorConfig()
        #: one WER model whose output columns are :attr:`ranks`, in order
        self._wer_model: Optional[DramErrorModel] = None
        self._ranks: Tuple[RankLocation, ...] = ()
        self._pue_model: Optional[DramErrorModel] = None

    # ------------------------------------------------------------------
    def fit(self, campaign: CampaignResult,
            profiles: Optional[Dict[str, WorkloadProfile]] = None) -> "WorkloadAwarePredictor":
        """Train the WER model (one output column per rank) and the PUE model.

        Raises :class:`DataError` when the ranks' rows are not aligned by
        (workload, operating point).
        """
        wer_dataset = build_wer_dataset(campaign, profiles)
        model = DramErrorModel(ModelConfig(
            family=self.config.wer_family,
            feature_set=self.config.wer_feature_set,
            log_target=True,
        ))
        ranks = tuple(wer_dataset.ranks())
        X, Y, _groups = wer_dataset.rank_matrices(model.feature_set, ranks)
        self._wer_model = model.fit_matrices(X, Y)
        self._ranks = ranks

        if campaign.pue_summaries:
            pue_dataset = build_pue_dataset(campaign, profiles)
            self._pue_model = DramErrorModel(ModelConfig(
                family=self.config.pue_family,
                feature_set=self.config.pue_feature_set,
                log_target=False,
            ))
            self._pue_model.fit(pue_dataset)
        return self

    @property
    def is_fitted(self) -> bool:
        return self._wer_model is not None

    @property
    def ranks(self) -> Tuple[RankLocation, ...]:
        """The ranks the fitted WER model predicts, one output column each."""
        return self._ranks

    # ------------------------------------------------------------------
    def _resolve_profile(self, workload: WorkloadArg) -> WorkloadProfile:
        if isinstance(workload, WorkloadProfile):
            return workload
        if isinstance(workload, str):
            return profile_workload(workload)
        raise ConfigurationError(
            "workload must be a registry name or a WorkloadProfile instance"
        )

    def _encode_workloads(
        self, workloads: Sequence[WorkloadArg]
    ) -> Tuple[List[str], np.ndarray, Dict[str, Mapping[str, float]]]:
        """Dictionary-encode a workload sequence against resolved profiles."""
        names: List[str] = []
        codes_by_name: Dict[str, int] = {}
        features: Dict[str, Mapping[str, float]] = {}
        codes = np.empty(len(workloads), dtype=np.int64)
        for i, workload in enumerate(workloads):
            name = workload.workload if isinstance(workload, WorkloadProfile) else workload
            if not isinstance(name, str):
                raise ConfigurationError(
                    "workload must be a registry name or a WorkloadProfile instance"
                )
            code = codes_by_name.get(name)
            if code is None:
                profile = self._resolve_profile(workload)
                code = codes_by_name[name] = len(names)
                names.append(name)
                features[name] = profile.features
            codes[i] = code
        return names, codes, features

    def _predict_columnar(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        features: Mapping[str, Mapping[str, float]],
        operating_columns: np.ndarray,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The batched core: one feature join + one matrix call per model."""
        if self._wer_model is None:
            raise NotFittedError("WorkloadAwarePredictor must be fitted first")
        program = self._wer_model.feature_set.program_matrix(names, features)
        X = np.concatenate([operating_columns, program[codes]], axis=1)
        # (n, ranks) -> one C-ordered row per rank.
        wer = np.ascontiguousarray(self._wer_model.predict_matrix(X).T)

        pue: Optional[np.ndarray] = None
        if self._pue_model is not None:
            pue_program = self._pue_model.feature_set.program_matrix(names, features)
            X_pue = np.concatenate([operating_columns, pue_program[codes]], axis=1)
            pue = np.clip(self._pue_model.predict_matrix(X_pue), 0.0, 1.0)
        return wer, pue

    # ------------------------------------------------------------------
    def predict_batch(
        self,
        workloads: Union[WorkloadArg, Sequence[WorkloadArg]],
        operating_points: Union[OperatingPoint, Sequence[OperatingPoint]],
    ) -> PredictionBatch:
        """Predict ``n`` paired (workload, operating point) combinations.

        ``workloads`` and ``operating_points`` are matched elementwise; a
        scalar on either side broadcasts against the other.  The whole
        batch is answered with one program-feature join and one
        ``predict_matrix`` call per fitted model (WER for every rank, then
        PUE) — no per-row objects.
        """
        if isinstance(workloads, (str, WorkloadProfile)):
            workloads = [workloads]
        if isinstance(operating_points, OperatingPoint):
            operating_points = [operating_points]
        workloads = list(workloads)
        points = list(operating_points)
        if len(workloads) == 1 and len(points) > 1:
            workloads = workloads * len(points)
        if len(points) == 1 and len(workloads) > 1:
            points = points * len(workloads)
        if len(workloads) != len(points):
            raise ConfigurationError(
                f"workloads ({len(workloads)}) and operating_points "
                f"({len(points)}) must pair up elementwise"
            )
        if not workloads:
            raise ConfigurationError("predict_batch() requires at least one pair")

        telemetry = get_telemetry()
        start = time.perf_counter()
        with telemetry.span("predictor.predict_batch"):
            names, codes, features = self._encode_workloads(workloads)
            operating_columns = np.array(
                [[p.trefp_s, p.vdd_v, p.temperature_c] for p in points],
                dtype=np.float64,
            )
            wer, pue = self._predict_columnar(names, codes, features, operating_columns)
            if telemetry.enabled:
                telemetry.incr("predictor.predictions", len(workloads))
        latency = time.perf_counter() - start

        return PredictionBatch(
            workloads=tuple(
                w.workload if isinstance(w, WorkloadProfile) else w for w in workloads
            ),
            operating_columns=operating_columns,
            ranks=self.ranks,
            wer=wer,
            pue=pue,
            latency_s=latency,
        )

    def predict_grid(
        self,
        workloads: Union[WorkloadArg, Sequence[WorkloadArg]],
        trefps: Sequence[float],
        temperatures: Sequence[float],
        vdds: Sequence[float] = (units.MIN_VDD_V,),
    ) -> PredictionGrid:
        """Predict the whole workloads x TREFP x temperature x VDD surface.

        The cartesian grid is assembled columnar-ly (repeat/tile of the
        axis vectors plus one fancy-indexed program-feature join) and
        answered with one ``predict_matrix`` call per fitted model.
        """
        if isinstance(workloads, (str, WorkloadProfile)):
            workloads = [workloads]
        workloads = list(workloads)
        trefp_axis = [float(v) for v in trefps]
        temperature_axis = [float(v) for v in temperatures]
        vdd_axis = [float(v) for v in vdds]
        if not (workloads and trefp_axis and temperature_axis and vdd_axis):
            raise ConfigurationError("predict_grid() requires non-empty axes")
        # Each operating-point constraint is per-field, so validating one
        # axis at a time (others at their valid defaults) covers the grid.
        for trefp in trefp_axis:
            OperatingPoint(trefp_s=trefp)
        for vdd in vdd_axis:
            OperatingPoint(vdd_v=vdd)
        for temperature in temperature_axis:
            OperatingPoint(temperature_c=temperature)

        telemetry = get_telemetry()
        start = time.perf_counter()
        with telemetry.span("predictor.predict_grid"):
            names, workload_codes, features = self._encode_workloads(workloads)
            n_workloads = len(workloads)
            n_trefp = len(trefp_axis)
            n_temperature = len(temperature_axis)
            n_vdd = len(vdd_axis)
            cells_per_workload = n_trefp * n_temperature * n_vdd
            codes = np.repeat(workload_codes, cells_per_workload)
            trefp_col = np.tile(
                np.repeat(trefp_axis, n_temperature * n_vdd), n_workloads
            )
            temperature_col = np.tile(
                np.repeat(temperature_axis, n_vdd), n_workloads * n_trefp
            )
            vdd_col = np.tile(vdd_axis, n_workloads * n_trefp * n_temperature)
            operating_columns = np.column_stack((trefp_col, vdd_col, temperature_col))
            wer, pue = self._predict_columnar(names, codes, features, operating_columns)
            surface_shape = (n_workloads, n_trefp, n_temperature, n_vdd)
            wer = wer.reshape((len(self.ranks),) + surface_shape)
            if pue is not None:
                pue = pue.reshape(surface_shape)
            if telemetry.enabled:
                telemetry.incr(
                    "predictor.predictions", n_workloads * cells_per_workload
                )
        latency = time.perf_counter() - start

        return PredictionGrid(
            workloads=tuple(
                w.workload if isinstance(w, WorkloadProfile) else w for w in workloads
            ),
            trefp_s=tuple(trefp_axis),
            temperature_c=tuple(temperature_axis),
            vdd_v=tuple(vdd_axis),
            ranks=self.ranks,
            wer=wer,
            pue=pue,
            latency_s=latency,
        )

    def predict(
        self, workload: WorkloadArg, operating_point: OperatingPoint
    ) -> PredictionResult:
        """Predict WER (per rank) and PUE for one workload at one point.

        Thin wrapper over the batch path: a one-row
        :meth:`predict_batch` unwrapped into a :class:`PredictionResult`.
        """
        return self.predict_batch([workload], [operating_point]).result(0)

    def predict_wer(
        self, workload: WorkloadArg, operating_point: OperatingPoint
    ) -> float:
        """Memory-wide WER prediction (convenience wrapper)."""
        return self.predict(workload, operating_point).memory_wer
