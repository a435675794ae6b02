"""Per-rank predictor oracle: one independently fitted WER model per rank.

``WorkloadAwarePredictor`` fits one multi-output WER model whose target
columns are the ranks.  :class:`PerRankPredictor` is the formulation it
replaced — one :class:`~repro.core.model.DramErrorModel` fitted on each
rank's rows alone and one ``predict_matrix`` call per rank — built only
on the public dataset and model API, so tests and benchmarks pin the
multi-output predictor against it bit for bit.
:func:`reference_predict_grid` answers a grid one operating point and
one single-row model call at a time, and
:func:`per_rank_wer_errors` scores each rank with its own
leave-one-workload-out pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.characterization.campaign import CampaignResult
from repro.core.dataset import ErrorDataset, build_pue_dataset, build_wer_dataset
from repro.core.evaluation import leave_one_workload_out_predictions
from repro.core.model import DramErrorModel, ModelConfig
from repro.core.predictor import PredictorConfig
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.ml.metrics import mean_percentage_error
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import profile_workload

WorkloadArg = Union[str, WorkloadProfile]


def _profile(workload: WorkloadArg) -> WorkloadProfile:
    return workload if isinstance(workload, WorkloadProfile) else profile_workload(workload)


class PerRankPredictor:
    """One WER ``DramErrorModel`` per rank plus the PUE model."""

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self.config = config or PredictorConfig()
        self.wer_models: Dict[RankLocation, DramErrorModel] = {}
        self.pue_model: Optional[DramErrorModel] = None

    def fit(self, campaign: CampaignResult,
            profiles: Optional[Dict[str, WorkloadProfile]] = None) -> "PerRankPredictor":
        wer_dataset = build_wer_dataset(campaign, profiles)
        for rank in wer_dataset.ranks():
            model = DramErrorModel(ModelConfig(
                family=self.config.wer_family,
                feature_set=self.config.wer_feature_set,
                log_target=True,
            ))
            self.wer_models[rank] = model.fit(wer_dataset.filter_rank(rank))
        if campaign.pue_summaries:
            self.pue_model = DramErrorModel(ModelConfig(
                family=self.config.pue_family,
                feature_set=self.config.pue_feature_set,
                log_target=False,
            )).fit(build_pue_dataset(campaign, profiles))
        return self

    @property
    def ranks(self) -> Tuple[RankLocation, ...]:
        return tuple(self.wer_models)

    def predict_batch(
        self, workloads: Sequence[WorkloadArg], operating_points: Sequence[OperatingPoint]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(wer, pue)`` for paired rows: one ``predict_matrix`` per model.

        ``wer`` has one row per rank, like ``PredictionBatch.wer``.
        """
        profiles = [_profile(workload) for workload in workloads]
        row_names = [profile.workload for profile in profiles]
        names = list(dict.fromkeys(row_names))
        features = {profile.workload: profile.features for profile in profiles}
        codes = np.array([names.index(name) for name in row_names], dtype=np.int64)
        operating = np.array(
            [[p.trefp_s, p.vdd_v, p.temperature_c] for p in operating_points],
            dtype=np.float64,
        )

        def inputs(model: DramErrorModel) -> np.ndarray:
            program = model.feature_set.program_matrix(names, features)
            return np.concatenate([operating, program[codes]], axis=1)

        models = list(self.wer_models.values())
        X = inputs(models[0])
        wer = np.stack([model.predict_matrix(X) for model in models])
        pue = None
        if self.pue_model is not None:
            pue = np.clip(self.pue_model.predict_matrix(inputs(self.pue_model)), 0.0, 1.0)
        return wer, pue


def reference_predict_grid(
    oracle: PerRankPredictor,
    workloads: Sequence[WorkloadArg],
    trefps: Sequence[float],
    temperatures: Sequence[float],
    vdds: Sequence[float],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-point, per-rank answers shaped like ``PredictionGrid``'s arrays.

    ``wer`` is ``(n_ranks, n_workloads, n_trefp, n_temperature, n_vdd)``
    and ``pue`` the surface shape (``None`` without a PUE model).  Every
    cell is one ``feature_set.build_row`` and one single-row call of each
    rank's own model.
    """
    profiles = [_profile(workload) for workload in workloads]
    models = list(oracle.wer_models.values())
    shape = (len(profiles), len(trefps), len(temperatures), len(vdds))
    wer = np.empty((len(models),) + shape, dtype=np.float64)
    pue: Optional[np.ndarray] = (
        np.empty(shape, dtype=np.float64) if oracle.pue_model is not None else None
    )
    for i, profile in enumerate(profiles):
        for j, trefp in enumerate(trefps):
            for k, temperature in enumerate(temperatures):
                for m, vdd in enumerate(vdds):
                    op = OperatingPoint(
                        trefp_s=float(trefp), vdd_v=float(vdd),
                        temperature_c=float(temperature),
                    )
                    for r, model in enumerate(models):
                        wer[r, i, j, k, m] = model.predict(op, profile.features)
                    if pue is not None and oracle.pue_model is not None:
                        value = oracle.pue_model.predict(op, profile.features)
                        pue[i, j, k, m] = min(max(value, 0.0), 1.0)
    return wer, pue


def per_rank_wer_errors(
    dataset: ErrorDataset, family: str, feature_set: str,
    ranks: Sequence[RankLocation],
) -> Tuple[Dict[RankLocation, float], Dict[str, float]]:
    """Fig. 11 MPEs with one leave-one-workload-out pass per rank.

    Returns ``(error_by_rank, error_by_workload)``; a workload's error is
    the mean over ranks, in ``ranks`` order, of its per-rank MPE.
    """
    by_rank: Dict[RankLocation, float] = {}
    by_workload: Dict[str, List[float]] = {}
    for rank in ranks:
        rank_dataset = dataset.filter_rank(rank)
        model = DramErrorModel(
            ModelConfig(family=family, feature_set=feature_set, log_target=True)
        )
        _X, y, groups = rank_dataset.matrices(model.feature_set)
        predictions = leave_one_workload_out_predictions(model, rank_dataset)
        by_rank[rank] = mean_percentage_error(y, predictions)
        for workload in np.unique(groups):
            mask = groups == workload
            by_workload.setdefault(str(workload), []).append(
                mean_percentage_error(y[mask], predictions[mask])
            )
    return by_rank, {
        workload: float(np.mean(errors)) for workload, errors in by_workload.items()
    }
